import numpy as np
import pytest

from steercert import gallery
from steercert.core import DEFAULT_TOL, Ket, Tolerances
from steercert.assemblages import (
    PureAssemblage,
    Scenario,
    canonicalize_pure,
    verify_ns,
)
from steercert.channel_assemblages import to_choi_assemblage
from steercert.certificates import (
    ConstraintMode,
    Verdict,
    Witness,
    build_constraint_system,
    decomposition_analysis,
    inflexibility_structural_check,
    witness_eval,
)


@pytest.fixture(scope="module")
def bell_pure():
    return canonicalize_pure(to_choi_assemblage(gallery.bell_cnot_assemblage()))


@pytest.fixture(scope="module")
def tilted_pure():
    return canonicalize_pure(to_choi_assemblage(gallery.tilted_cnot_assemblage()))


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
        inflexibility_structural_check(PureAssemblage(scen, {}))


def test_relaxed_mode_needs_two_parties(bell_pure):
    scen = Scenario((2,), (2,), (2,))
    p = PureAssemblage(scen, {
        ((a,), (x,)): (0.5, Ket((2,), np.eye(2)[a]))
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


def test_witness_exposes_reference(bell_pure, rng):
    # the exposing functional scores the reference strictly above random
    # quantum assemblages of the same scenario
    from test_assemblages import random_realized_assemblage

    w = Witness(bell_pure)
    reference_value = witness_eval(w, bell_pure.to_assemblage())
    scen = Scenario((2, 2), (2, 2), (2, 2))
    for _ in range(100):
        s = random_realized_assemblage(rng, scen)
        assert verify_ns(s).ok
        assert witness_eval(w, s) < reference_value - 1e-6
