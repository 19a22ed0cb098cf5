from math import prod

import numpy as np
import pytest

from steercert import gallery
from steercert.core import Ket
from steercert.channels import projective_povm, pure_state
from steercert.assemblages import (
    Assemblage,
    Scenario,
    assemblage_from_realization,
    canonicalize_pure,
    verify_ns,
)
from steercert.channel_assemblages import to_choi_assemblage, verify_asym_ns
from steercert.certificates import build_constraint_system, decomposition_analysis
from steercert.constraints import (
    ConstraintMode,
    Reduction,
    asym_ns,
    family,
    full_ns,
    magnitudes,
    vectorize,
)


def haar_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pure_realization(rng, n, m, k, d, entangled=True):
    """Projective measurements in Haar-random bases on a pure state."""
    if entangled:
        psi = haar_unitary(rng, k ** n * d)[:, 0]
    else:
        psi = haar_unitary(rng, d)[:, 0]
        for _ in range(n):
            psi = np.kron(haar_unitary(rng, k)[:, 0], psi)
    povms = tuple(
        projective_povm([[u[:, a] for a in range(k)]
                         for u in (haar_unitary(rng, k) for _ in range(m))])
        for _ in range(n))
    scen = Scenario((m,) * n, (k,) * n, (d,))
    return assemblage_from_realization(pure_state(Ket((k,) * n + (d,), psi)),
                                       povms, scen)


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


def _block_height(c, dims):
    if c.reduction is Reduction.TRACE:
        return 1
    side = dims[1] if c.reduction is Reduction.OUTPUT_TRACE else prod(dims)
    return 2 * side * side


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_vectorized_rows_evaluate_like_the_verifier(mode):
    # each constraint's block of rows in the certificate system measures the
    # deviation the verifier reports on the matching members
    pure = canonicalize_pure(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    fam = family(pure.scenario, mode)
    columns = tuple(pure.scenario.positions())
    units = np.zeros((len(columns),) + pure.kets.shape[1:] * 2, dtype=complex)
    for pos, ket in zip(pure.support, pure.kets):
        units[pure.scenario.index(*pos)] = np.outer(ket, ket.conj())
    coefs = np.linspace(0.3, 1.1, len(columns))
    matrix, rhs = vectorize(fam, columns, units)
    residual = np.abs(matrix @ coefs - rhs)
    expected = magnitudes(fam, coefs[:, None, None] * units)
    r = 0
    for c, want in zip(fam.constraints, expected):
        height = _block_height(c, pure.scenario.trusted_dims)
        assert residual[r:r + height].max() == pytest.approx(want, abs=1e-12)
        r += height
    assert r == matrix.shape[0]


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
