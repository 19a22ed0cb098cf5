import collections
import itertools

import numpy as np
import pytest
from conftest import pure_assemblage, pure_members

from steercert import certificates, gallery
from steercert.core import DEFAULT_TOL, Tolerances
from steercert.assemblages import Scenario, canonicalize_pure
from steercert.certificates import (
    ConstraintMode,
    Verdict,
    build_constraint_system,
    decomposition_analysis,
    inflexibility_structural_check,
)


@pytest.fixture(scope="module")
def bell_pure():
    return canonicalize_pure(gallery.bell_cnot_assemblage())


@pytest.fixture(scope="module")
def tilted_pure():
    return canonicalize_pure(gallery.tilted_cnot_assemblage())


def test_reference_satisfies_both_systems(bell_pure):
    for mode in ConstraintMode:
        system = build_constraint_system(bell_pure, mode)
        assert system.residual_of(system.reference) < 1e-12


def test_full_ns_certifies_extreme(bell_pure):
    cert = decomposition_analysis(bell_pure, ConstraintMode.FULL_NS)
    assert cert.verdict is Verdict.UNIQUE_EXTREME
    assert cert.nullity == 0
    assert cert.rank == len(cert.system.columns) == 14
    assert set(cert.pinned) == set(cert.system.columns)


def test_relaxed_mode_finds_decomposition(bell_pure):
    cert = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    assert cert.verdict is Verdict.NON_UNIQUE
    assert cert.nullity >= 1
    c_plus, c_minus = cert.witness_pair
    assert cert.system.residual_of(c_plus) < 1e-9
    assert cert.system.residual_of(c_minus) < 1e-9
    assert np.min(c_plus) > 0 and np.min(c_minus) > 0
    np.testing.assert_allclose((c_plus + c_minus) / 2, cert.system.reference,
                               atol=1e-12)
    assert np.max(np.abs(c_plus - c_minus)) > 1e-3
    # only the (a, b | 1, 0) coordinates are free
    free = set(cert.system.columns) - set(cert.pinned)
    assert free == {((a, b), (1, 0)) for a in range(2) for b in range(2)}


def test_published_split_solves_relaxed_system(bell_pure):
    cert = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    plus, minus = gallery.nonextremal_split_coefficients()
    for table in (plus, minus):
        c = np.array([table[pos] for pos in cert.system.columns])
        assert cert.system.residual_of(c) < 1e-9


def test_tilted_is_extreme_in_relaxed_mode(tilted_pure):
    cert = decomposition_analysis(tilted_pure, ConstraintMode.ASYM_NS)
    assert cert.verdict is Verdict.UNIQUE_EXTREME
    assert cert.nullity == 0
    assert cert.rank == 16


def test_structural_check(bell_pure, tilted_pure):
    # the zero members at settings (0, 0) force the witness to (1, 1)
    assert inflexibility_structural_check(bell_pure) == (1, 1)
    assert inflexibility_structural_check(tilted_pure) is not None


def test_structural_check_scenario_guard():
    scen = Scenario((3, 2), (2, 2), (2, 2))
    with pytest.raises(ValueError):
        inflexibility_structural_check(pure_assemblage(scen, {}))


def test_relaxed_mode_needs_two_parties(bell_pure):
    scen = Scenario((2,), (2,), (2,))
    p = pure_assemblage(scen, {((a,), (x,)): (0.5, np.eye(2)[a])
                               for a in range(2) for x in range(2)})
    with pytest.raises(ValueError):
        decomposition_analysis(p, ConstraintMode.ASYM_NS)


def test_certificate_json(bell_pure):
    cert = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    doc = cert.to_json()
    assert doc["verdict"] == "NON_UNIQUE"
    assert len(doc["witness_pair"]) == 2
    assert len(doc["columns"]) == len(doc["witness_pair"][0])


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_rank_margin_straddles_threshold(bell_pure, mode):
    cert = decomposition_analysis(bell_pure, mode)
    kept, dropped = cert.rank_margin
    assert kept > DEFAULT_TOL.rank_rel_tol >= dropped >= 0.0
    assert cert.to_json()["rank_margin"] == [kept, dropped]
    # a threshold above the smallest kept value drops it from the rank
    tighter = decomposition_analysis(bell_pure, mode,
                                     Tolerances(rank_rel_tol=2 * kept))
    assert tighter.rank < cert.rank


def reference_structural_check(scen, members: dict, tol=DEFAULT_TOL):
    """The structural check as written over member operators: every member
    of a set has numerical rank one, and no two of them have principal
    eigenvectors overlapping by more than ``1 - abs_tol``."""
    d = scen.trusted_dim

    def op(a, x):
        if (a, x) not in members:
            return np.zeros((d, d), dtype=complex)
        weight, ket = members[(a, x)]
        return weight * np.outer(ket, ket.conj())

    def rank(m):
        s = np.linalg.svd(m, compute_uv=False)
        return 0 if s[0] == 0.0 else int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))

    def proportional(m1, m2):
        if np.trace(m1).real <= 0 or np.trace(m2).real <= 0:
            return False
        u, v = (np.linalg.eigh((m + m.conj().T) / 2)[1][:, -1] for m in (m1, m2))
        return abs(np.vdot(u, v)) > 1 - tol.abs_tol

    def distinct_nonzero(ops):
        return (all(rank(m) == 1 for m in ops)
                and not any(proportional(m1, m2)
                            for m1, m2 in itertools.combinations(ops, 2)))

    for y1 in range(2):
        for y2 in range(2):
            sets = ([op((0, a2), (y1, x2)) for a2 in range(2) for x2 in range(2)],
                    [op((1, a2), (y1, x2)) for a2 in range(2) for x2 in range(2)],
                    [op((a1, 0), (x1, y2)) for a1 in range(2) for x1 in range(2)])
            if all(distinct_nonzero(s) for s in sets):
                return (y1, y2)
    return None


def random_pure_members(rng, scen, kets: int, zero_share: float) -> dict:
    """Members drawn from a pool of ``kets`` unit kets, each under a random
    phase (so repeats are proportional, not equal); a ``zero_share`` of the
    positions is left out."""
    d = scen.trusted_dim
    pool = rng.normal(size=(kets, d)) + 1j * rng.normal(size=(kets, d))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    return {pos: (rng.uniform(0.1, 1.0),
                  np.exp(2j * np.pi * rng.uniform()) * pool[rng.integers(kets)])
            for pos in scen.positions() if rng.uniform() >= zero_share}


def test_structural_check_matches_operator_reference():
    scen = Scenario((2, 2), (2, 2), (2,))
    answers = collections.Counter()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        members = random_pure_members(rng, scen, int(rng.integers(2, 33)),
                                      rng.choice([0.0, 0.02, 0.1]))
        want = reference_structural_check(scen, members)
        assert inflexibility_structural_check(pure_assemblage(scen, members)) == want
        answers[want] += 1
    # every outcome of the check is reached
    assert set(answers) == {None, (0, 0), (0, 1), (1, 0), (1, 1)}, answers


def test_structural_check_rejects_product_assemblage():
    # one trusted ket everywhere: every set is pairwise proportional
    scen = Scenario((2, 2), (2, 2), (2,))
    ket = np.array([0.6, 0.8j])
    members = {pos: (0.25, ket) for pos in scen.positions()}
    assert reference_structural_check(scen, members) is None
    assert inflexibility_structural_check(pure_assemblage(scen, members)) is None


def test_reference_check_follows_nnls_residual_tol(bell_pure):
    # one weight off by 1e-9 leaves a residual of about 1e-9 in the system
    members = pure_members(bell_pure)
    pos = bell_pure.support[0]
    weight, ket = members[pos]
    off = pure_assemblage(bell_pure.scenario, {**members, pos: (weight + 1e-9, ket)})
    assert decomposition_analysis(off, ConstraintMode.FULL_NS).nullity == 0
    with pytest.raises(ValueError, match="reference coefficients"):
        decomposition_analysis(off, ConstraintMode.FULL_NS,
                               Tolerances(nnls_residual_tol=1e-12))


def test_witness_pair_does_not_follow_the_kernel_sign(bell_pure, monkeypatch):
    cert = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    ranked = certificates.nullspace_and_spectrum

    def negated(m, tol):
        basis, s = ranked(m, tol)
        return -basis, s

    monkeypatch.setattr(certificates, "nullspace_and_spectrum", negated)
    flipped = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    for got, want in zip(flipped.witness_pair, cert.witness_pair):
        np.testing.assert_array_equal(got, want)
    # the first move within abs_tol of the largest is upward in c_plus:
    # moves equal in exact arithmetic count as equal, whatever their rounding
    step = cert.witness_pair[0] - cert.system.reference
    mag = np.abs(step)
    assert step[np.argmax(mag >= mag.max() - DEFAULT_TOL.abs_tol)] > 0


def test_pin_margin_straddles_abs_tol(bell_pure):
    cert = decomposition_analysis(bell_pure, ConstraintMode.ASYM_NS)
    pinned_reach, free_reach = cert.pin_margin
    assert 0.0 <= pinned_reach < DEFAULT_TOL.abs_tol < free_reach <= 1.0
    # an empty kernel pins every column and leaves no free side
    extreme = decomposition_analysis(bell_pure, ConstraintMode.FULL_NS)
    assert extreme.pin_margin == (0.0, 0.0)
