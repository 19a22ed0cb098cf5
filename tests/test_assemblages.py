import numpy as np
import pytest

from steercert.core import Ket, Op
from steercert.channels import (
    Povm,
    State,
    projective_povm,
    pure_state,
    random_density,
    random_kraus_channel,
)
from steercert.assemblages import (
    Assemblage,
    HermitianRealization,
    LhsModel,
    NoLhs,
    PureAssemblage,
    Scenario,
    assemblage_from_realization,
    canonicalize_pure,
    deterministic_strategies,
    lhs_assemblage,
    pure_lhs_decide,
    verify_hermitian_realization,
    verify_ns,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def zx_povm():
    return projective_povm([[KET0, KET1], [PLUS, MINUS]])


def singlet_assemblage():
    """One untrusted qubit measured in Z and X on half of a Bell pair."""
    scen = Scenario((2,), (2,), (2,))
    bell = Ket((2, 2), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    return assemblage_from_realization(pure_state(bell), (zx_povm(),), scen)


def random_realized_assemblage(rng, scen: Scenario) -> Assemblage:
    povms = []
    for m, k in zip(scen.settings, scen.outcomes):
        rows = []
        for _ in range(m):
            ch = random_kraus_channel(rng, 2, 2, n_kraus=k)
            rows.append(tuple(Op((2,), op.conj().T @ op) for op in ch.kraus_ops))
        povms.append(Povm(2, tuple(rows)))
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


def test_assemblage_validation():
    scen = Scenario((1,), (2,), (2,))
    bad = {((0,), (0,)): Op((2,), np.diag([0.9, 0.0])),
           ((1,), (0,)): Op((2,), np.diag([0.0, 0.3]))}
    with pytest.raises(ValueError):
        Assemblage(scen, bad)


def test_singlet_assemblage_members_and_ns():
    s = singlet_assemblage()
    np.testing.assert_allclose(s.member((0,), (0,)).data,
                               np.diag([0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(s.member((0,), (1,)).data,
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
        ((0,), (0,)): Op((2,), np.diag([0.5, 0.0])),
        ((1,), (0,)): Op((2,), np.diag([0.0, 0.5])),
        ((0,), (1,)): Op((2,), np.diag([0.7, 0.0])),
        ((1,), (1,)): Op((2,), np.diag([0.0, 0.3])),
    }
    report = verify_ns(Assemblage(scen, members))
    assert not report.ok
    assert report.max_violation == pytest.approx(0.2)


def test_deterministic_strategy_count():
    scen = Scenario((2, 2), (2, 2), (2,))
    strategies = list(deterministic_strategies(scen))
    assert len(strategies) == 16
    assert strategies[0].select((0, 1)) in {(a, b) for a in range(2) for b in range(2)}


def test_hermitian_realization_roundtrip():
    s = singlet_assemblage()
    bell = Ket((2, 2), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    h = HermitianRealization(bell.outer(), (zx_povm(),))
    assert verify_hermitian_realization(h, s)
    other = HermitianRealization(Op((2, 2), np.eye(4) / 4), (zx_povm(),))
    assert not verify_hermitian_realization(other, s)


def test_lhs_assemblage_and_decision_roundtrip():
    scen = Scenario((2,), (2,), (2,))
    states = (State(Op((2,), np.outer(KET0, KET0))),
              State(Op((2,), np.outer(PLUS, PLUS))))
    tables = (
        (np.array([[1.0, 0.0], [0.0, 1.0]]),),
        (np.array([[0.0, 1.0], [1.0, 0.0]]),),
    )
    model = LhsModel((0.25, 0.75), states, tables)
    s = lhs_assemblage(model, scen)
    assert verify_ns(s).ok
    verdict = pure_lhs_decide(canonicalize_pure(s))
    assert isinstance(verdict, LhsModel)
    rebuilt = lhs_assemblage(verdict, scen)
    for pos in scen.positions():
        np.testing.assert_allclose(rebuilt.members[pos].data,
                                   s.members[pos].data, atol=1e-9)


def test_singlet_has_no_lhs_model():
    verdict = pure_lhs_decide(canonicalize_pure(singlet_assemblage()))
    assert isinstance(verdict, NoLhs)


def test_pr_box_like_assemblage_has_no_lhs_model():
    # two untrusted parties steering a trivial trusted system with PR-box
    # statistics: no-signaling but far outside the local polytope
    scen = Scenario((2, 2), (2, 2), (1,))
    one = Op((1,), np.array([[1.0]]))
    half = Op((1,), np.array([[0.5]]))
    zero = Op((1,), np.array([[0.0]]))
    members = {}
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    hit = (a ^ b) == (x & y)
                    members[((a, b), (x, y))] = half if hit else zero
    s = Assemblage(scen, members)
    assert verify_ns(s).ok
    verdict = pure_lhs_decide(canonicalize_pure(s))
    assert isinstance(verdict, NoLhs)
    assert verdict.residual is None or verdict.residual > 1e-3


def test_canonicalize_pure_names_high_rank_position():
    scen = Scenario((1,), (1,), (2,))
    s = Assemblage(scen, {((0,), (0,)): Op((2,), np.eye(2) / 2)})
    with pytest.raises(ValueError, match=r"\(0,\)\|\(0,\)"):
        canonicalize_pure(s)


def test_pure_assemblage_member_op():
    scen = Scenario((1,), (2,), (2,))
    p = PureAssemblage(scen, {((0,), (0,)): (1.0, Ket((2,), KET0))})
    np.testing.assert_allclose(p.member_op((0,), (0,)).data, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(p.member_op((1,), (0,)).data, np.zeros((2, 2)))
    assert verify_ns(p.to_assemblage()).ok
