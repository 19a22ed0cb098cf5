"""The reduced certificate system against the system written out constraint
by constraint.

``reference_vectorize`` is the builder the reduced one replaced: every
constraint of the family gives one row per real coordinate of its reduced
sum (real parts, then imaginary parts, of every entry).  The reduced system
keeps only a basis of each zero-target coefficient block's row space, and
only the ``D**2`` Hermitian coordinates, so the two systems have the same
kernel but not the same rows; they are compared through their kernels.
The certificate ranks the reduced system on the kernel ``K`` of its
coefficient block with no reduction, restricted to the support
(:func:`kernel_on_support`), and maps the kernel back through ``K``.
"""

from math import prod

import numpy as np
import pytest
from conftest import pure_assemblage, pure_realization
from test_witness_grid import realization

from steercert import gallery
from steercert.core import DEFAULT_TOL, nullspace, nullspace_and_spectrum
from steercert.assemblages import Scenario, assemblage_from_realization, canonicalize_pure
from steercert.channel_assemblages import chanasm_from_realization
from steercert.certificates import build_constraint_system, decomposition_analysis
from steercert.constraints import (
    ConstraintMode,
    Reduction,
    _coordinates,
    _reduce,
    family,
    full_ns,
    magnitudes,
    project,
)


def _real_rows(reduced: np.ndarray) -> np.ndarray:
    if reduced.ndim == 1:
        return reduced[None, :]
    flat = reduced.reshape(reduced.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def reference_vectorize(fam, columns, units):
    scen = fam.scenario
    index = {pos: j for j, pos in enumerate(columns)}
    positions = list(scen.positions())
    rows, rhs = [], []
    for part in fam.parts:
        vec = _real_rows(_reduce(units, part.reduction, scen.trusted_dims))
        for terms in part.positions:
            coef = np.zeros(len(columns))
            for place, sign in zip(terms, part.signs):
                if positions[place] in index:
                    coef[index[positions[place]]] += sign
            rows.append(coef[None, :] * vec)
            target = np.zeros(len(vec)) if part.target is None else \
                _real_rows(np.asarray(part.target)[None]).reshape(-1)
            rhs.append(target)
    return np.concatenate(rows), np.concatenate(rhs)


def _bench_case(shape, entangled):
    seed = sum(shape) + 10 * entangled
    return canonicalize_pure(pure_realization(np.random.default_rng(seed), *shape,
                                              entangled))


def _fixture(name):
    assemblage = {"bell": gallery.bell_cnot_assemblage,
                  "tilted": gallery.tilted_cnot_assemblage}[name]()
    return canonicalize_pure(assemblage)


def _random_pure(scen, zero_share):
    """Random complex kets on ``scen``; a ``zero_share`` of the positions
    are zero."""
    rng = np.random.default_rng(5)
    d = scen.trusted_dim
    members = {}
    for pos in scen.positions():
        if rng.uniform() >= zero_share:
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            members[pos] = (rng.uniform(0.1, 1.0), ket / np.linalg.norm(ket))
    return pure_assemblage(scen, members)


def _zeroed(settings, k, d, channel):
    """A realization whose members at the first party's setting 0 and
    outcome 0 are zero (:func:`test_witness_grid.realization`)."""
    real = realization(settings, k, d, channel, True, 0)
    assemblage = (chanasm_from_realization(real.state, real.povms, real.channel,
                                           real.scenario) if channel else
                  assemblage_from_realization(real.state, real.povms, real.scenario))
    return canonicalize_pure(assemblage)


BENCH_SHAPES = [(3, 2, 2, 2), (3, 3, 2, 2), (3, 2, 3, 2), (3, 2, 2, 3), (4, 2, 2, 2)]
CASES = (
    [(f"{''.join(map(str, s))}-{form}", lambda s=s, e=e: _bench_case(s, e),
      ConstraintMode.FULL_NS)
     for s in BENCH_SHAPES for form, e in (("entangled", True), ("product", False))]
    + [("3332-entangled", lambda: _bench_case((3, 3, 3, 2), True), ConstraintMode.FULL_NS)]
    + [(f"{name}-{mode.value}", lambda name=name: _fixture(name), mode)
       for name in ("bell", "tilted") for mode in ConstraintMode]
    # settings and outcomes varying by party, a third of the positions zero
    + [(f"partial-{mode.value}",
        lambda: _random_pure(Scenario((2, 3), (3, 2), (2, 2)), 1 / 3), mode)
       for mode in ConstraintMode]
    + [("partial-3232", lambda: _random_pure(Scenario((2, 2, 2), (3, 3, 3), (2,)), 1 / 3),
        ConstraintMode.FULL_NS)]
    # partial supports with a certificate: 48 of 64 positions (nullity 1),
    # 20 of 24 (nullity 2) and 180 of 216 (nullity 0)
    + [("zeroed-222-state", lambda: _zeroed((2, 2, 2), 2, 2, False), ConstraintMode.FULL_NS),
       ("zeroed-32-channel", lambda: _zeroed((3, 2), 2, 2, True), ConstraintMode.NS_CHANNEL),
       ("zeroed-222-qutrit-outcomes", lambda: _zeroed((2, 2, 2), 3, 2, False),
        ConstraintMode.FULL_NS)]
    # fewer rows than columns: the kernel depends on the imaginary coordinates
    + [("one-party", lambda: _random_pure(Scenario((2,), (4,), (2,)), 0.0),
        ConstraintMode.FULL_NS)]
)


def kernel_on_support(system):
    """``(K, N)``: the rows of :attr:`.Family.certificate_kernel` at the
    system's columns, its places in ``positions()`` order, times ``N``, a
    basis of the combinations of its columns that vanish at every other
    position, found by ranking those rows as the certificate does; on a
    full support those rows and ``None``."""
    full = system.family.certificate_kernel
    off = np.delete(np.arange(len(full)), system.at)
    if not off.size:
        return full[system.at], None
    n = nullspace(full[off], DEFAULT_TOL.rank_rel_tol).T
    return full[system.at] @ n, n


def ranked(system, n):
    """What the certificate ranks: ``A K`` from the party factors, times
    ``N`` off a full support."""
    projected = project(system.family, system.at, system.units)
    return projected if n is None else projected @ n


def _units(pure):
    return pure.kets[:, :, None] * pure.kets[:, None, :].conj()


def _pinned(basis, columns):
    return {pos for j, pos in enumerate(columns)
            if np.all(np.abs(basis[:, j]) < DEFAULT_TOL.abs_tol)}


@pytest.mark.parametrize("name, make, mode", CASES, ids=[c[0] for c in CASES])
def test_reduced_system_has_the_reference_kernel(name, make, mode):
    pure = make()
    system = build_constraint_system(pure, mode)
    matrix, _ = reference_vectorize(family(pure.scenario, mode), pure.support,
                                    _units(pure))
    assert system.matrix.any(axis=1).all()
    assert system.matrix.shape[0] < matrix.shape[0]
    basis, _ = nullspace_and_spectrum(system.matrix)
    want, _ = nullspace_and_spectrum(matrix)
    assert basis.shape == want.shape
    assert _pinned(basis, pure.support) == _pinned(want, pure.support)
    np.testing.assert_allclose(basis.T @ basis, want.T @ want, atol=1e-12)


def _zero_rows(fam):
    """The zero-target coefficient rows with no reduction, over all positions."""
    [rows] = [rows for reduction, rows, targets in fam.certificate_rows
              if reduction is Reduction.NONE and targets is None]
    return rows


@pytest.mark.parametrize("name, make, mode", CASES, ids=[c[0] for c in CASES])
def test_projected_kernel_is_the_reference_kernel(name, make, mode):
    pure = make()
    system = build_constraint_system(pure, mode)
    k, _ = kernel_on_support(system)
    at = [pure.scenario.index(a, x) for a, x in pure.support]
    np.testing.assert_allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-12)
    np.testing.assert_allclose(_zero_rows(system.family)[:, at] @ k, 0, atol=1e-12)

    matrix, _ = reference_vectorize(system.family, pure.support, _units(pure))
    want, _ = nullspace_and_spectrum(matrix)
    projected, _ = nullspace_and_spectrum(system.matrix @ k)
    basis = projected @ k.T
    assert len(basis) == len(want)
    assert _pinned(basis, pure.support) == _pinned(want, pure.support)
    np.testing.assert_allclose(basis.T @ basis, want.T @ want, atol=1e-9)

    ref = system.reference
    if system.residual_of(ref) > DEFAULT_TOL.nnls_residual_tol:
        return  # random weights (partial-*, one-party): no certificate
    np.testing.assert_allclose(k @ (k.T @ ref), ref, atol=1e-12)
    cert = decomposition_analysis(pure, mode)
    assert cert.nullity == len(want)
    assert set(cert.pinned) == _pinned(want, pure.support)
    if cert.witness_pair is not None:
        np.testing.assert_allclose(matrix @ (cert.witness_pair[0] - ref), 0, atol=1e-12)


@pytest.mark.parametrize("name, make, mode", CASES, ids=[c[0] for c in CASES])
def test_assembled_projection_has_the_spectrum_of_a_times_k(name, make, mode):
    # A K built block by block, with the trace coordinate of the
    # no-reduction block dropped, against the product with the formed A
    pure = make()
    system = build_constraint_system(pure, mode)
    k, n = kernel_on_support(system)
    assembled, dense = ranked(system, n), system.matrix @ k
    spectra = np.zeros((2, k.shape[1]))
    for row, m in zip(spectra, (assembled, dense)):
        s = np.linalg.svd(m, compute_uv=False)
        row[:len(s)] = s
    np.testing.assert_allclose(spectra[0], spectra[1], rtol=0, atol=1e-12 * spectra[1, 0])
    (basis, s), (want, s_want) = (nullspace_and_spectrum(m, DEFAULT_TOL.rank_rel_tol)
                                  for m in (assembled, dense))
    assert len(basis) == len(want)
    assert _pinned(basis @ k.T, pure.support) == _pinned(want @ k.T, pure.support)
    kept = k.shape[1] - len(basis)
    if kept:
        assert abs(s[kept - 1] / s[0] - s_want[kept - 1] / s_want[0]) <= 1e-12


def dense_project(fam, at, units, k):
    """``A K`` block by block as dense products over the positions ``at``:
    the body :func:`.constraints.project` had before it contracted the
    zero-target blocks party by party."""
    parts = [np.zeros((0, k.shape[1]))]
    for reduction, coef, targets in fam.certificate_rows:
        traceless = reduction is Reduction.NONE and targets is None
        vec = _coordinates(_reduce(units, reduction, fam.scenario.trusted_dims), traceless)
        block = coef[:, at]
        parts += [block @ (v[:, None] * k) for v in vec]
    return np.concatenate(parts)


@pytest.mark.parametrize("name, make, mode", CASES, ids=[c[0] for c in CASES])
def test_contracted_projection_is_the_dense_block_product(name, make, mode):
    pure = make()
    system = build_constraint_system(pure, mode)
    k, n = kernel_on_support(system)
    assert (n is None) == (len(pure.support) == len(list(pure.scenario.positions())))
    want = dense_project(system.family, system.at, system.units, k)
    got = ranked(system, n)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_kernel_rows_follow_the_positions_order():
    # The support is sorted (a, x) and positions() runs x-major, so K's rows,
    # which follow positions() like the members, are taken at each support
    # position's place in positions(), not in support order.
    pure = _bench_case((3, 3, 2, 2), False)
    scen = pure.scenario
    assert sorted(pure.support) == sorted(scen.positions())
    assert list(pure.support) != list(scen.positions())
    cert = decomposition_analysis(pure, ConstraintMode.FULL_NS)
    full = cert.system.family.certificate_kernel
    # the member traces, no-signaling, lie in K's span over positions()
    # order, and not over support order
    traces = np.zeros(len(full))
    traces[[scen.index(a, x) for a, x in pure.support]] = pure.weights
    np.testing.assert_allclose(full @ (full.T @ traces), traces, atol=1e-12)
    assert not np.allclose(full @ (full.T @ pure.weights), pure.weights, atol=1e-6)
    assert kernel_on_support(cert.system)[1] is None  # a full support: no N
    np.testing.assert_allclose(_zero_rows(cert.system.family) @ full, 0, atol=1e-12)
    matrix, _ = reference_vectorize(cert.system.family, pure.support, _units(pure))
    want, _ = nullspace_and_spectrum(matrix)
    assert cert.nullity == len(want) > 0
    assert set(cert.pinned) == _pinned(want, pure.support)


def test_relaxed_bell_cnot_keeps_nullity_one():
    # the partial-support system of acceptance criterion 4: 14 of 16 positions
    cert = decomposition_analysis(_fixture("bell"), ConstraintMode.ASYM_NS)
    assert len(cert.system.columns) == 14
    assert cert.nullity == 1


@pytest.mark.parametrize("name, make, mode", CASES, ids=[c[0] for c in CASES])
def test_residual_is_the_family_deviation(name, make, mode):
    pure = make()
    system = build_constraint_system(pure, mode)
    fam, units = family(pure.scenario, mode), _units(pure)
    rng = np.random.default_rng(7)
    for c in (system.reference, *rng.uniform(0.0, 2.0, size=(5, len(pure.support)))):
        members = np.zeros((len(list(pure.scenario.positions())),) + units.shape[1:],
                           dtype=complex)
        for value, pos, unit in zip(c, pure.support, units):
            members[pure.scenario.index(*pos)] = value * unit
        assert system.residual_of(c) == max(magnitudes(fam, members))


@pytest.mark.parametrize("settings, outcomes, rank", [
    ((2,), (3,), 1), ((2, 2), (2, 2), 7), ((2, 3), (3, 2), 16), ((3, 2, 2), (2, 3, 2), 84),
    ((3, 3, 3), (2, 2, 2), 152), ((2, 2, 2, 2), (2, 2, 2, 2), 175),
    ((3, 3, 3), (3, 3, 3), 386),
])
def test_zero_target_rank_is_the_collins_gisin_count(settings, outcomes, rank):
    # the no-signaling members span prod(m_i (k_i - 1) + 1) dimensions
    # (Collins-Gisin parametrization), so the zero-target coefficients of
    # the full family have rank positions - that
    scen = Scenario(settings, outcomes, (2,))
    rows = _zero_rows(full_ns(scen))
    ns_dim = prod(m * (k - 1) + 1 for m, k in zip(settings, outcomes))
    assert len(rows) == prod(settings) * prod(outcomes) - ns_dim == rank
    np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)
