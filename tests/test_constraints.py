import numpy as np
import pytest
from conftest import pure_realization

from steercert import gallery
from steercert.assemblages import Assemblage, Scenario, canonicalize_pure, verify_ns
from steercert.channel_assemblages import verify_asym_ns
from steercert.certificates import build_constraint_system, decomposition_analysis
from steercert.constraints import (ConstraintMode, Family, Reduction, asym_ns, full_ns,
                                   no_signaling_factors)


def relabel_mutant(s: Assemblage) -> Assemblage:
    """Cyclically shift party 1's outcome wherever party 0's setting is 1:
    totals per setting are unchanged, but the marginals signal."""
    k = s.scenario.outcomes[1]
    members = []
    for a, x in s.scenario.positions():
        src = list(a)
        if x[0] == 1:
            src[1] = (a[1] + 1) % k
        members.append(s.member(src, x).data)
    return Assemblage(s.scenario, members)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2),
                                   (3, 2, 3, 2)])
def test_verifier_and_builder_share_the_family(rng, shape):
    # the reference coefficients solve the built system exactly when the
    # verifier finds no violation
    for entangled in (True, False):
        s = pure_realization(rng, *shape, entangled)
        for candidate in (s, relabel_mutant(s)):
            system = build_constraint_system(canonicalize_pure(candidate),
                                             ConstraintMode.FULL_NS)
            solved = system.residual_of(system.reference) <= 1e-9
            assert verify_ns(candidate).ok == solved
        assert verify_ns(s).ok and not verify_ns(relabel_mutant(s)).ok


@pytest.mark.parametrize("shape, entangled, nullity, pinned", [
    ((3, 2, 2, 2), False, 26, 0),
    ((3, 3, 2, 2), True, 0, 216),
])
def test_three_party_certificates_keep_their_nullity(shape, entangled, nullity,
                                                     pinned):
    # values computed by the builder that enumerated the family by hand
    s = pure_realization(np.random.default_rng(3), *shape, entangled)
    cert = decomposition_analysis(canonicalize_pure(s), ConstraintMode.FULL_NS)
    assert (cert.nullity, len(cert.pinned)) == (nullity, pinned)


def test_relaxed_family_needs_two_parties_and_channel_dims():
    with pytest.raises(ValueError, match="two parties"):
        asym_ns(Scenario((2, 2, 2), (2, 2, 2), (2, 2)))
    with pytest.raises(ValueError, match="d_out, d_in"):
        asym_ns(Scenario((2, 2), (2, 2), (4,)))


def test_family_names_follow_report_order():
    fam = full_ns(Scenario((2, 2), (2, 2), (2,)))
    names = [c.name for c in fam.constraints]
    assert names[0] == "marginal I=(0,) a=(0,) x=(0,): settings (0,) vs (1,)"
    assert names[-4:] == ["total trace at x=(1, 1)", "total at x=(0, 0) vs x=(0, 1)",
                          "total at x=(0, 0) vs x=(1, 0)",
                          "total at x=(0, 0) vs x=(1, 1)"]
    relaxed = verify_asym_ns(gallery.bell_cnot_assemblage())
    assert relaxed.ok and relaxed.max_violation == 0.0


def _coefficients(fam, reduction):
    """The zero-target coefficient rows with ``reduction``, from ``terms``."""
    rows, positions, signs = fam.terms
    coef = np.zeros((len(fam.constraints), len(list(fam.scenario.positions()))))
    np.add.at(coef, (rows, positions), signs)
    return coef[[i for i, c in enumerate(fam.constraints)
                 if c.reduction is reduction and c.target is None]]


FACTOR_GRID = [  # (settings, outcomes, trusted dims)
    ((2,), (3,), (2,)), ((1,), (3,), (2,)), ((3,), (1,), (2,)),
    ((2, 3), (3, 2), (2,)), ((1, 2, 3), (3, 2, 2), (2,)), ((2, 1), (1, 3), (2,)),
    ((2, 2, 2, 2), (2, 2, 2, 2), (2,)),
    ((2, 2), (2, 2), (2, 2)), ((2, 3), (3, 2), (2, 2)), ((3, 2), (2, 3), (1, 2)),
    ((1, 2), (2, 1), (2, 1)), ((2, 1), (3, 2), (2, 3)),
]


def _whole_families(settings, outcomes, dims):
    scen = Scenario(settings, outcomes, dims)
    return lambda: [full_ns(scen)] + ([asym_ns(scen)] if len(dims) == 2 else [])


def _sub_family(make, settings, outcomes, dims, keep):
    """The constraints of ``make``'s family that ``keep`` accepts."""
    def families():
        fam = make(Scenario(settings, outcomes, dims))
        return [Family(fam.scenario, tuple(c for c in fam.constraints if keep(c)))]
    return families


def _marginals(inside):
    return lambda c: c.name.startswith(f"marginal I={inside} ")


def _totals(c):
    return c.name.startswith("total")


FACTOR_CASES = [pytest.param(_whole_families(*grid), id="-".join(map(str, grid)))
                for grid in FACTOR_GRID] + [
    pytest.param(_sub_family(full_ns, (2, 3), (3, 2), (2,), _marginals((0,))),
                 id="full-marginals-I=(0,)"),
    pytest.param(_sub_family(full_ns, (2, 2, 3), (3, 2, 2), (2,), _marginals((0, 2))),
                 id="full-marginals-I=(0, 2)"),
    pytest.param(_sub_family(full_ns, (2, 3), (3, 2), (2,), _totals), id="full-totals"),
    pytest.param(_sub_family(full_ns, (2, 2, 3), (2, 3, 2), (2,), _totals),
                 id="full-totals-three-parties"),
    pytest.param(_sub_family(asym_ns, (2, 3), (3, 2), (2, 2),
                             lambda c: c.target is None or c.reduction is Reduction.NONE),
                 id="asym-without-output-trace-condition"),
    pytest.param(_sub_family(asym_ns, (3, 2), (2, 3), (2, 2),
                             lambda c: c.reduction is Reduction.OUTPUT_TRACE),
                 id="asym-output-traced-only"),
]


@pytest.mark.parametrize("families", FACTOR_CASES)
def test_factor_bases_are_the_constraint_list(families):
    # the party-factor rows and kernel against the family's own coefficient
    # blocks, ranked by an SVD here
    for fam in families():
        k = fam.certificate_kernel
        zero_blocks = [(reduction, rows) for reduction, rows, targets
                       in fam.certificate_rows if targets is None]
        assert bool(zero_blocks) == any(c.target is None for c in fam.constraints)
        if not any(c.target is None and c.reduction is Reduction.NONE
                   for c in fam.constraints):
            np.testing.assert_array_equal(k, np.eye(len(k)))
        for reduction, rows in zero_blocks:
            coef = _coefficients(fam, reduction)
            _, s, vt = np.linalg.svd(coef)
            rank = int(np.count_nonzero(s > s[0] * 1e-10))
            assert len(rows) == rank
            whole = np.vstack([rows, k]) if reduction is Reduction.NONE else rows
            np.testing.assert_allclose(whole @ whole.T, np.eye(len(whole)), atol=1e-12)
            # the block annihilates the complement of its rows
            complement = np.eye(coef.shape[1]) - rows.T @ rows
            np.testing.assert_allclose(coef @ complement, 0, atol=1e-12)
            if reduction is Reduction.NONE:
                np.testing.assert_allclose(coef @ k.T, 0, atol=1e-12)
                np.testing.assert_allclose(k.T @ k, vt[rank:].T @ vt[rank:], atol=1e-12)


def test_factor_bases_take_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    fam = full_ns(Scenario((3,) * 3, (3,) * 3, (2,)))
    assert [len(rows) for _, rows, _ in fam.certificate_rows] == [386, 27]
    assert fam.certificate_kernel.shape == (343, 729)


@pytest.mark.parametrize("settings, outcomes", [((3, 3, 3), (2, 2, 2)), ((2, 3), (3, 1)),
                                                ((1, 2, 3), (3, 2, 2))])
def test_no_signaling_factors_span_the_full_family_kernel(settings, outcomes):
    scen = Scenario(settings, outcomes, (2,))
    factors = no_signaling_factors(scen)
    for q, m, k in zip(factors, settings, outcomes):
        assert q.shape == (m * (k - 1) + 1, m * k)
        np.testing.assert_allclose(q @ q.T, np.eye(len(q)), atol=1e-14)
    # Q over positions: the Kronecker product of each party's factor at (x_i, a_i)
    rows = []
    for a, x in scen.positions():
        row = np.ones(1)
        for q, k, ai, xi in zip(factors, outcomes, a, x):
            row = np.kron(row, q[:, xi * k + ai])
        rows.append(row)
    q = np.array(rows)
    k = full_ns(scen).certificate_kernel
    assert q.shape[1] == len(k)
    np.testing.assert_allclose(q @ q.T, k.T @ k, atol=1e-13)
