import numpy as np
import pytest

from steercert.core import (
    DEFAULT_TOL,
    Ket,
    NnlsDidNotConverge,
    Op,
    Tolerances,
    identity,
    is_hermitian,
    is_psd,
    kron,
    kron_all,
    nnls,
    nullspace,
    nullspace_and_spectrum,
    op_rank,
    partial_trace,
    principal_eigenvector,
    proportional_rank_one,
)


def test_op_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Op((2,), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Op((2, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Op((2,), np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Op((), np.zeros((1, 1)))


def test_ket_basics():
    k = Ket((2,), [3, 4])
    assert k.norm() == pytest.approx(5.0)
    outer = k.outer()
    assert outer.dims == (2,)
    assert outer.trace() == pytest.approx(25.0)


def test_kron_is_big_endian():
    # |1> (x) |0> must land on index 1*2 + 0 = 2
    k = kron(Ket((2,), [0, 1]).outer(), Ket((2,), [1, 0]).outer())
    assert k.dims == (2, 2)
    np.testing.assert_allclose(np.diag(k.data), [0, 0, 1, 0])
    a = Op((2,), np.diag([1.0, 2.0]))
    b = Op((3,), np.diag([1.0, 10.0, 100.0]))
    ab = kron(a, b)
    assert ab.dims == (2, 3)
    np.testing.assert_allclose(np.diag(ab.data), [1, 10, 100, 2, 20, 200])
    assert kron_all([a, b]).dims == (2, 3)


def test_partial_trace_single_factor(rng):
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = Op((2, 3), g)
    left = partial_trace(a, keep=[0])
    right = partial_trace(a, keep=[1])
    assert left.dims == (2,) and right.dims == (3,)
    assert left.trace() == pytest.approx(a.trace())
    assert right.trace() == pytest.approx(a.trace())


def test_partial_trace_of_product_factorizes(rng):
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a, b = Op((2,), ga), Op((3,), gb)
    ab = kron(a, b)
    np.testing.assert_allclose(partial_trace(ab, keep=[0]).data,
                               a.data * np.trace(gb), atol=1e-12)
    np.testing.assert_allclose(partial_trace(ab, keep=[1]).data,
                               b.data * np.trace(ga), atol=1e-12)


def test_partial_trace_composes(rng):
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a = Op((2, 3, 2), g)
    direct = partial_trace(a, keep=[1])
    staged = partial_trace(partial_trace(a, keep=[0, 1]), keep=[1])
    np.testing.assert_allclose(direct.data, staged.data, atol=1e-12)


def test_partial_trace_keep_all_and_bad_index():
    a = identity((2, 2))
    assert partial_trace(a, keep=[0, 1]) is a
    with pytest.raises(IndexError):
        partial_trace(a, keep=[2])


def test_hermitian_and_psd_checks():
    assert is_hermitian(Op((2,), [[1, 1j], [-1j, 2]]))
    assert not is_hermitian(Op((2,), [[1, 1], [2, 1]]))
    assert is_psd(Op((2,), np.diag([1.0, 0.0])))
    assert not is_psd(Op((2,), np.diag([1.0, -1e-3])))


def test_op_rank_is_unitary_invariant(rng):
    proj = np.diag([1.0, 1.0, 0.0, 0.0])
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    rotated = Op((4,), q @ proj @ q.conj().T)
    assert op_rank(rotated) == 2
    assert op_rank(Op((2,), np.zeros((2, 2)))) == 0
    # relative threshold: a uniformly tiny matrix still has full rank
    assert op_rank(Op((2,), 1e-14 * np.eye(2))) == 2


def test_principal_eigenvector():
    v = principal_eigenvector(Op((2,), np.diag([1.0, 3.0])))
    assert abs(v[1]) == pytest.approx(1.0)


def test_proportional_rank_one():
    u = Ket((2,), [1, 0]).outer()
    w = Ket((2,), [1, 1]).outer()
    zero = Op((2,), np.zeros((2, 2)))
    assert proportional_rank_one(u, Op((2,), 3 * u.data))
    assert not proportional_rank_one(u, w)
    assert proportional_rank_one(zero, zero)
    assert not proportional_rank_one(u, zero)
    with pytest.raises(ValueError):
        proportional_rank_one(identity((2,)), u)


def test_nullspace_contract(rng):
    m = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    basis = nullspace(m)
    assert basis.shape == (2, 3)
    np.testing.assert_allclose(m @ basis.T, 0, atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    # random full-column-rank systems have empty kernels
    g = rng.normal(size=(8, 5))
    assert nullspace(g).shape == (0, 5)
    # padding with linear combinations of existing rows keeps the kernel
    padded = np.vstack([g, g[0] + 2 * g[1]])
    assert nullspace(padded).shape == (0, 5)


def test_nullspace_of_zero_matrix():
    np.testing.assert_allclose(nullspace(np.zeros((3, 4))), np.eye(4))


@pytest.mark.parametrize("rows, cols, rank", [(40, 12, 7),   # tall
                                               (5, 12, 4),    # wide
                                               (10, 10, 6)])  # square
def test_nullspace_and_spectrum_known_rank(rng, rows, cols, rank):
    m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    m = np.insert(m, [0, 2, 2, rows], 0.0, axis=0)  # all-zero rows mixed in
    basis, s = nullspace_and_spectrum(m)
    assert basis.shape == (cols - rank, cols)
    np.testing.assert_allclose(basis @ basis.T, np.eye(cols - rank), atol=1e-12)
    np.testing.assert_allclose(m @ basis.T, 0, atol=1e-10)
    assert np.all(np.diff(s) <= 0)
    assert s[rank - 1] / s[0] > DEFAULT_TOL.rank_rel_tol >= s[rank] / s[0]
    # same kernel projector and kept spectrum as a full SVD of the input
    _, s_ref, vt = np.linalg.svd(m, full_matrices=True)
    np.testing.assert_allclose(basis.T @ basis, vt[rank:].T @ vt[rank:],
                               atol=1e-10)
    np.testing.assert_allclose(s[:rank], s_ref[:rank], rtol=1e-10)
    np.testing.assert_array_equal(nullspace(m), basis)


def test_nullspace_and_spectrum_of_zero_rows_only():
    for m in (np.zeros((3, 4)), np.zeros((0, 4))):
        basis, s = nullspace_and_spectrum(m)
        np.testing.assert_array_equal(basis, np.eye(4))
        assert s.size == 0


def test_nnls_contract(rng):
    m = rng.normal(size=(6, 3))
    x_true = np.array([0.5, 0.0, 2.0])
    x, res = nnls(m, m @ x_true)
    assert res < 1e-10
    np.testing.assert_allclose(x, x_true, atol=1e-8)
    assert np.all(x >= 0)
    # infeasible target reports a positive residual
    m = np.array([[1.0], [0.0]])
    x, res = nnls(m, np.array([-1.0, 1.0]))
    assert res == pytest.approx(np.sqrt(2.0))
    assert np.all(x >= 0)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(abs_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(nnls_residual_tol=-1e-9)
