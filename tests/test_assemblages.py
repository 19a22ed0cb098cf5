import dataclasses

import compile_oracle as oracle
import numpy as np
import pytest
from conftest import pure_realization, random_density, random_kraus_channel
from hypothesis import given, settings, strategies as st

from steercert.core import DEFAULT_TOL
from steercert.channels import (
    KrausChannel,
    Povm,
    projective_povm,
    pure_state,
)
from steercert.assemblages import (
    Assemblage,
    LhsModel,
    MemberError,
    NoLhs,
    PureAssemblage,
    Scenario,
    assemblage_from_realization,
    canonicalize_pure,
    lhs_assemblage,
    measured_members,
    pure_lhs_decide,
    verify_ns,
)
from steercert.channel_assemblages import ChannelAssemblage, to_choi_assemblage

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def zx_povm():
    return projective_povm([[KET0, KET1], [PLUS, MINUS]])


def singlet_assemblage():
    """One untrusted qubit measured in Z and X on half of a Bell pair."""
    scen = Scenario((2,), (2,), (2,))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return assemblage_from_realization(pure_state((2, 2), bell), (zx_povm(),), scen)


def random_realized_assemblage(rng, scen: Scenario) -> Assemblage:
    povms = []
    for m, k in zip(scen.settings, scen.outcomes):
        rows = []
        for _ in range(m):
            ch = random_kraus_channel(rng, 2, 2, n_kraus=k)
            rows.append([op.conj().T @ op for op in ch.kraus_ops])
        povms.append(Povm(2, rows))
    dims = tuple(2 for _ in scen.settings) + scen.trusted_dims
    rho = random_density(rng, dims)
    return assemblage_from_realization(rho, tuple(povms), scen)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario((2,), (2, 2), (2,))
    with pytest.raises(ValueError):
        Scenario((0,), (2,), (2,))
    scen = Scenario((2, 3), (2, 2), (2,))
    assert scen.n_parties == 2 and scen.trusted_dim == 2
    assert len(list(scen.positions())) == 6 * 4


def test_indices_are_index_of_each_position():
    scen = Scenario((2, 3, 1), (3, 1, 2), (2,))
    positions = list(scen.positions())
    order = np.random.default_rng(0).permutation(len(positions))
    picked = [positions[i] for i in order]
    np.testing.assert_array_equal(scen.indices(picked), order)
    assert scen.indices([]).shape == (0,)
    outside = [((0, 0, 0), (0, 0, 5)), ((0,), (0, 0, 0)), ((2 ** 70, 0, 0), (0, 0, 0)),
               ((0,), (0, 0, 0, 0, 0))]
    for bad in outside:
        with pytest.raises(ValueError, match="outside the scenario") as info:
            scen.indices(picked[:3] + [bad] + outside)
        assert info.value.place == 3


@pytest.mark.parametrize("settings, outcomes", [((2, 3, 1), (3, 1, 2)), ((3,), (2,)),
                                                ((3, 3, 3), (3, 3, 3))])
def test_scenario_caches_its_size_and_party_major_order(settings, outcomes):
    scen = Scenario(settings, outcomes, (2,))
    assert scen.size == len(list(scen.positions()))
    assert scen.size is scen.size
    place = scen.party_major
    assert place is scen.party_major and not place.flags.writeable
    np.testing.assert_array_equal(place, oracle.party_major(scen))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scen.size = 1
    with pytest.raises(ValueError, match="read-only"):
        place[0] = 1


def test_pure_assemblage_at_is_the_place_of_each_support_position(rng):
    s = pure_realization(rng, 2, 2, 3, 2)
    members = np.array(s.members)
    zeroed = [0, 5, 7, 20, 35]  # some of them at x=(0, 0)
    members[zeroed] = 0
    p = canonicalize_pure(Assemblage(s.scenario, members))
    assert len(p.support) == s.scenario.size - len(zeroed)
    np.testing.assert_array_equal(p.at, s.scenario.indices(p.support))
    np.testing.assert_array_equal(np.sort(p.at), np.delete(np.arange(s.scenario.size), zeroed))
    assert p.at is p.at and not p.at.flags.writeable


def test_verify_ns_reports_non_psd_members_and_totals():
    scen = Scenario((1,), (2,), (2,))
    # positivity and the trace of a total are measured against the
    # caller's tolerance, not checked when the assemblage is built
    not_psd = Assemblage(scen, [np.diag([1.1, -0.1]), np.zeros((2, 2))])
    report = verify_ns(not_psd)
    assert [v.constraint for v in report.violations] == ["member (0,)|(0,) PSD"]
    assert report.max_violation == pytest.approx(0.1)
    assert verify_ns(not_psd, tol=0.2).ok
    with pytest.raises(ValueError, match=r"member \(0,\)\|\(0,\) is not PSD"):
        canonicalize_pure(not_psd)
    unnormalized = Assemblage(scen, [np.diag([0.9, 0.0]), np.diag([0.0, 0.3])])
    report = verify_ns(unnormalized)
    assert [v.constraint for v in report.violations] == ["total trace at x=(0,)"]
    assert report.max_violation == pytest.approx(0.2)


def test_singlet_assemblage_members_and_ns():
    s = singlet_assemblage()
    np.testing.assert_allclose(s.member((0,), (0,)), np.diag([0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(s.member((0,), (1,)),
                               0.5 * np.outer(PLUS, PLUS), atol=1e-12)
    assert verify_ns(s).ok


def test_quantum_realizations_are_no_signaling(rng):
    # acceptance property: 100 random quantum realizations never signal
    scen = Scenario((2, 2), (2, 2), (2,))
    for _ in range(100):
        s = random_realized_assemblage(rng, scen)
        report = verify_ns(s)
        assert report.ok, report.violations[:3]


def test_verify_ns_detects_signaling():
    scen = Scenario((2,), (2,), (2,))
    members = {
        ((0,), (0,)): np.diag([0.5, 0.0]),
        ((1,), (0,)): np.diag([0.0, 0.5]),
        ((0,), (1,)): np.diag([0.7, 0.0]),
        ((1,), (1,)): np.diag([0.0, 0.3]),
    }
    report = verify_ns(Assemblage(scen, [members[pos] for pos in scen.positions()]))
    assert not report.ok
    assert report.max_violation == pytest.approx(0.2)


def test_hermitian_realization_roundtrip():
    s = singlet_assemblage()
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    w = np.outer(bell, bell)
    assert np.max(np.abs(measured_members(w, (zx_povm(),), s.scenario) - s.members)) <= 1e-9
    other = measured_members(np.eye(4) / 4, (zx_povm(),), s.scenario)
    assert np.max(np.abs(other - s.members)) > 1e-9


def test_lhs_assemblage_and_decision_roundtrip():
    scen = Scenario((2,), (2,), (2,))
    states = np.array([np.outer(KET0, KET0), np.outer(PLUS, PLUS)])
    tables = (np.array([[[1.0, 0.0], [0.0, 1.0]],
                        [[0.0, 1.0], [1.0, 0.0]]]),)
    model = LhsModel(np.array([0.25, 0.75]), states, tables)
    s = lhs_assemblage(model, scen)
    assert verify_ns(s).ok
    verdict = pure_lhs_decide(canonicalize_pure(s))
    assert isinstance(verdict, LhsModel)
    rebuilt = lhs_assemblage(verdict, scen)
    for pos in scen.positions():
        np.testing.assert_allclose(rebuilt.member(*pos), s.member(*pos), atol=1e-9)


def _two_variable_model():
    """Weights, states and tables of a valid one-party, two-variable model."""
    return (np.array([0.25, 0.75]),
            np.array([np.outer(KET0, KET0), np.outer(PLUS, PLUS)]),
            (np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]),))


def test_lhs_model_holds_read_only_arrays():
    model = LhsModel(*_two_variable_model())
    assert model.weights.shape == (2,) and model.states.shape == (2, 2, 2)
    assert [t.shape for t in model.tables] == [(2, 2, 2)]
    with pytest.raises(ValueError):
        model.states[0, 0, 0] = 0


@pytest.mark.parametrize("kind", ["Assemblage", "ChannelAssemblage", "LhsModel",
                                  "PureAssemblage", "Povm", "KrausChannel"])
def test_checked_containers_own_their_arrays(kind):
    m = np.eye(2, dtype=complex)[None] / 2
    if kind == "Assemblage":
        held = Assemblage(Scenario((1,), (1,), (2,)), m).members
    elif kind == "ChannelAssemblage":
        l = ChannelAssemblage(Scenario((1,), (1,), (2, 1)), m)
        held = l.members
        assert isinstance(l, Assemblage)
        assert not np.shares_memory(to_choi_assemblage(l).members, held)
    elif kind == "LhsModel":
        held = LhsModel(np.ones(1), m, (np.ones((1, 1, 1)),)).states
    elif kind == "PureAssemblage":  # the first row of m[0] as the one ket
        held = PureAssemblage(Scenario((1,), (1,), (2,)), (((0,), (0,)),), np.ones(1),
                              m[0, :1]).kets
    elif kind == "Povm":  # one setting with one effect, the identity
        m = 2 * m[None]
        held = Povm(2, m).effects
    else:  # one Kraus operator, the identity
        m = 2 * m
        held = KrausChannel(2, 2, m).kraus_ops
    expected = held.copy()
    m.flat[0] = 7  # neither a write to the caller's array
    m.flat[-1] = np.nan  # nor a non-finite entry gets past the checks
    assert np.array_equal(held, expected) and not held.flags.writeable


@pytest.mark.parametrize("fault, message", [
    ("negative weight", "nonnegative"),
    ("weights off one", "sum to 1"),
    ("state not PSD", "PSD"),
    ("trace off one", "unit trace"),
    ("table row off one", "conditional distributions"),
    ("count mismatch", "states have shape"),
    ("weight not finite", "non-finite entry in weights"),
    ("table entry not finite", "non-finite entry in tables"),
])
def test_lhs_model_checks_raise(fault, message):
    weights, states, tables = _two_variable_model()
    if fault == "negative weight":
        weights = np.array([-0.25, 1.25])
    elif fault == "weights off one":
        weights = np.array([0.25, 0.5])
    elif fault == "state not PSD":
        states[1] = np.diag([1.5, -0.5])
    elif fault == "trace off one":
        states[1] = 0.5 * states[1]
    elif fault == "table row off one":
        tables[0][1, 0] = [0.5, 0.4]
    elif fault == "weight not finite":
        weights = np.array([np.nan, 1.0])
    elif fault == "table entry not finite":
        tables[0][1, 0] = [np.nan, 1.0]
    else:
        states = states[:1]
    with pytest.raises(ValueError, match=message):
        LhsModel(weights, states, tables)


def test_singlet_has_no_lhs_model():
    verdict = pure_lhs_decide(canonicalize_pure(singlet_assemblage()))
    assert isinstance(verdict, NoLhs)


def test_pr_box_like_assemblage_has_no_lhs_model():
    # two untrusted parties steering a trivial trusted system with PR-box
    # statistics: no-signaling but far outside the local polytope
    scen = Scenario((2, 2), (2, 2), (1,))
    half = np.array([[0.5]])
    zero = np.array([[0.0]])
    members = {}
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    hit = (a ^ b) == (x & y)
                    members[((a, b), (x, y))] = half if hit else zero
    s = Assemblage(scen, [members[pos] for pos in scen.positions()])
    assert verify_ns(s).ok
    verdict = pure_lhs_decide(canonicalize_pure(s))
    assert isinstance(verdict, NoLhs)
    assert verdict.residual is None or verdict.residual > 1e-3


def test_canonicalize_pure_names_high_rank_position():
    scen = Scenario((1,), (1,), (2,))
    s = Assemblage(scen, [np.eye(2) / 2])
    with pytest.raises(ValueError, match=r"\(0,\)\|\(0,\)"):
        canonicalize_pure(s)


def test_canonicalize_pure_ranks_the_hermitian_part():
    # a rank-one member plus a skew of 1e-10: PSD within abs_tol, and its
    # Hermitian part, which gives the ket, has rank one; the SVD of the
    # member itself counts the skew as a second singular value
    v = np.array([1, 1j]) / np.sqrt(2)
    skewed = 1e-3 * np.outer(v, v.conj()) + 1e-10 * np.array([[0, 1], [-1, 0]])
    sv = np.linalg.svd(skewed, compute_uv=False)
    assert sv[1] > DEFAULT_TOL.rank_rel_tol * sv[0]
    s = Assemblage(Scenario((1,), (2,), (2,)), [skewed, 0.999 * np.diag([1.0, 0.0])])
    p = canonicalize_pure(s)
    assert p.support == (((0,), (0,)), ((1,), (0,)))
    assert abs(np.vdot(v, p.kets[0])) == pytest.approx(1, abs=1e-12)
    np.testing.assert_allclose(p.weights, [1e-3, 0.999])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=st.integers(2, 4), log_trace=st.floats(-6, 0), above=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_rank_decision_at_rank_rel_tol(d, log_trace, above, seed):
    """Planted lambda_2 / lambda_1 = rank_rel_tol * (1 +- 1e-3) in an exactly
    Hermitian PSD member: the rank follows the planted side, and agrees
    with the SVD of the member."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    ratio = DEFAULT_TOL.rank_rel_tol * (1 + (1e-3 if above else -1e-3))
    lam = np.zeros(d)
    lam[:2] = np.array([1, ratio]) * 10**log_trace / (1 + ratio)
    member = (u * lam) @ u.conj().T
    member = (member + member.conj().T) / 2
    sv = np.linalg.svd(member, compute_uv=False)
    assert (sv[1] > DEFAULT_TOL.rank_rel_tol * sv[0]) == above  # the oracle
    s = Assemblage(Scenario((1,), (1,), (d,)), [member])
    if above:
        with pytest.raises(MemberError, match="has rank 2 > 1"):
            canonicalize_pure(s)
    else:
        ket = canonicalize_pure(s).kets[0]
        assert abs(np.vdot(u[:, 0], ket)) == pytest.approx(1, abs=1e-9)
