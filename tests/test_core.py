import numpy as np
import pytest
from conftest import partial_trace, pure_realization, shared_ket_local_box
from hypothesis import given, settings, strategies as st

from steercert import assemblages, core
from steercert.channels import ChoiOp, State
from steercert.core import (
    DEFAULT_TOL,
    Tolerances,
    nnls,
    nullspace,
    nullspace_and_spectrum,
    psd_deviation,
)


def test_op_validates_shape_and_finiteness():
    # a state and a Choi matrix run the same checks, the Choi matrix on
    # out_dims + in_dims
    for dims, matrix, message in [
        ((2,), np.zeros((2, 3)), r"matrix shape \(2, 3\) does not match dims \(2,\)"),
        ((2, 2), np.zeros((2, 2)), r"matrix shape \(2, 2\) does not match dims \(2, 2\)"),
        ((2,), np.array([[np.nan, 0], [0, 0]]), "non-finite entry in operator"),
        ((), np.zeros((1, 1)), "dims must be a nonempty list of positive integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            State(dims, matrix)
        with pytest.raises(ValueError, match=message):
            ChoiOp(dims[1:], dims[:1], matrix)


def test_partial_trace_single_factor(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    left = partial_trace(a, (2, 3), keep=[0])
    right = partial_trace(a, (2, 3), keep=[1])
    assert left.shape == (2, 2) and right.shape == (3, 3)
    assert np.trace(left) == pytest.approx(np.trace(a))
    assert np.trace(right) == pytest.approx(np.trace(a))


def test_partial_trace_of_product_factorizes(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ab = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(ab, (2, 3), keep=[0]), a * np.trace(b),
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(ab, (2, 3), keep=[1]), b * np.trace(a),
                               atol=1e-12)


def test_partial_trace_composes(rng):
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    direct = partial_trace(a, (2, 3, 2), keep=[1])
    staged = partial_trace(partial_trace(a, (2, 3, 2), keep=[0, 1]), (2, 3), keep=[1])
    np.testing.assert_allclose(direct, staged, atol=1e-12)


def test_partial_trace_keep_all_and_bad_index():
    a = np.eye(4, dtype=complex)
    assert partial_trace(a, (2, 2), keep=[0, 1]) is a
    with pytest.raises(IndexError):
        partial_trace(a, (2, 2), keep=[2])


def test_hermitian_and_psd_checks():
    assert psd_deviation(np.array([[1, 1j], [-1j, 2]])[None])[0] <= DEFAULT_TOL.abs_tol
    assert psd_deviation(np.array([[1, 1], [2, 1]])[None])[0] > DEFAULT_TOL.abs_tol
    assert psd_deviation(np.diag([1.0, 0.0])[None])[0] <= DEFAULT_TOL.abs_tol
    assert psd_deviation(np.diag([1.0, -1e-3])[None])[0] > DEFAULT_TOL.abs_tol


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


@pytest.mark.parametrize("rows, cols", [(40, 12), (12, 12)])
def test_nullspace_and_spectrum_full_column_rank(rng, rows, cols):
    m = rng.normal(size=(rows, cols))
    basis, s = nullspace_and_spectrum(m)
    assert basis.shape == (0, cols)
    np.testing.assert_allclose(s, np.linalg.svd(m)[1], rtol=1e-12)


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


def test_rank_tolerance_must_reach_float_epsilon():
    with pytest.raises(ValueError, match="rank_rel_tol must be at least"):
        Tolerances(rank_rel_tol=np.finfo(float).eps / 2)
    assert Tolerances(rank_rel_tol=np.finfo(float).eps).rank_rel_tol == np.finfo(float).eps


def test_tolerances_must_be_finite():
    with pytest.raises(ValueError, match="abs_tol must be finite"):
        Tolerances(abs_tol=float("inf"))


def _two_pass_nullspace_and_spectrum(m, tol):
    """The rank path that ranked every square ``R`` from a values-only SVD
    before taking the full one."""
    m = m[np.any(m != 0.0, axis=1)]
    cols = m.shape[1]
    if m.shape[0] > cols:
        m = np.linalg.qr(m, mode="r")
    if m.shape[0] == cols:
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > tol * s[0]:
            return np.zeros((0, cols)), s
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return vt[int(np.count_nonzero(s > tol * s[0])):], s


@pytest.mark.parametrize("rows", [10, 30])  # square, and tall with a square R
def test_rank_deficient_system_takes_one_svd(rng, monkeypatch, rows):
    # a diagonal entry of R at the threshold proves the kernel non-empty,
    # so the values-only pass is skipped
    m = rng.normal(size=(rows, 6)) @ rng.normal(size=(6, 10))
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(kwargs) or svd(*args, **kwargs))
    basis, s = nullspace_and_spectrum(m)
    monkeypatch.undo()
    assert calls == [{"full_matrices": True}]
    want, s_want = _two_pass_nullspace_and_spectrum(m, DEFAULT_TOL.rank_rel_tol)
    assert basis.shape == want.shape == (4, 10)
    np.testing.assert_allclose(basis.T @ basis, want.T @ want, atol=1e-12)
    np.testing.assert_allclose(s[:6], s_want[:6], rtol=1e-12)


# Where a planted smallest singular value sits: at the rank threshold
# (ratio to s_max, times 1 -+ 1e-3), either side of the certification floor
# (s_min^2 / ||m||_F^2 over (rows + cols) eps / tol), or well above it.
PLANTED = {"below threshold": ("ratio", 1 - 1e-3), "above threshold": ("ratio", 1 + 1e-3),
           "under floor": ("floor", 0.5), "over floor": ("floor", 2.0),
           "well above": ("ratio", 1e6)}


def _planted(rows, cols, seed, place):
    """A ``rows x cols`` matrix whose singular values are 1, random values
    in [0.5, 1], and a smallest one placed as ``PLANTED[place]`` says."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
    s = np.concatenate([[1.0], np.sort(rng.uniform(0.5, 1.0, cols - 2))[::-1], [0.0]])
    tol = DEFAULT_TOL.rank_rel_tol
    kind, q = PLANTED[place]
    if kind == "ratio":
        s[-1] = q * tol
    else:  # s_min^2 = q * floor * (rest + s_min^2)
        floor = q * (rows + cols) * np.finfo(float).eps / tol
        s[-1] = np.sqrt(floor * np.sum(s ** 2) / (1 - floor))
    return (u * s) @ v.T


def _rank_calls(mp):
    """Record each call of the linear-algebra routines the rank path uses,
    and whether it raised."""
    calls = []
    for name in ("cholesky", "eigvalsh", "qr", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            try:
                out = _f(*args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append(_name + " failed")
                raise
            calls.append(_name)
            return out
        mp.setattr(np.linalg, name, spy)
    return calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cols=st.integers(2, 40), extra=st.integers(0, 80),
       seed=st.integers(0, 2 ** 32 - 1), place=st.sampled_from(sorted(PLANTED)))
def test_certified_path_agrees_with_the_svd(cols, extra, seed, place):
    rows = cols + extra
    m = _planted(rows, cols, seed, place)
    tol = DEFAULT_TOL.rank_rel_tol
    with pytest.MonkeyPatch.context() as mp:
        calls = _rank_calls(mp)
        basis, s = nullspace_and_spectrum(m, tol)
    want, s_want = _two_pass_nullspace_and_spectrum(m, tol)
    assert basis.shape == want.shape
    certified = calls[0] == "cholesky"
    # where the planted s_min puts the decision
    assert certified == (place in ("over floor", "well above"))
    assert want.shape[0] == (place == "below threshold")
    if certified:  # a kernel proven empty
        assert calls == ["cholesky", "eigvalsh"]
        assert want.shape[0] == 0
        np.testing.assert_allclose(s, s_want, rtol=tol, atol=0)
        assert s[-1] / s[0] == pytest.approx(s_want[-1] / s_want[0], rel=tol, abs=0)
    else:  # one failed Cholesky, then the QR and SVD path alone
        assert calls[:2] == ["cholesky failed", "qr"]
        assert set(calls[2:]) <= {"svd"} and calls[2:]
        # both SVDs are backward stable: equal to within rounding of s_max
        np.testing.assert_allclose(s, s_want, rtol=0,
                                   atol=rows * np.finfo(float).eps * s_want[0])


def test_certified_spectrum_is_ordered_and_exact_enough(rng):
    m = rng.normal(size=(50, 20))
    s = core._certified_spectrum(m, DEFAULT_TOL.rank_rel_tol)
    assert s is not None and np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False),
                               rtol=DEFAULT_TOL.rank_rel_tol, atol=0)
    # a larger threshold than s_min / ||m||_F cannot be certified
    ratio = s[-1] / np.linalg.norm(m)
    assert core._certified_spectrum(m, 1.01 * ratio) is None


# Where the planted s_2 of a rank-one matrix sits, as a multiple of
# rank_rel_tol * s_1: either side of the threshold, at half of it (the
# rank-one path's own bound) and at twice it, where the path never fires;
# at 1e-4 of it and far below, where it always does; and at a tenth of it,
# where it fires unless the largest row lies far from v_1.
RANK_ONE = {"below threshold": 1 - 1e-3, "above threshold": 1 + 1e-3, "half": 0.5,
            "twice": 2.0, "tenth": 0.1, "1e-4": 1e-4, "far below": 1e-6}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=st.integers(2, 60), cols=st.integers(2, 60),
       seed=st.integers(0, 2 ** 32 - 1), place=st.sampled_from(sorted(RANK_ONE)))
def test_rank_one_path_agrees_with_the_svd(rows, cols, seed, place):
    rng = np.random.default_rng(seed)
    tol, r = DEFAULT_TOL.rank_rel_tol, min(rows, cols)
    u = np.linalg.qr(rng.normal(size=(rows, r)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, r)))[0]
    s = np.zeros(r)
    s[:2] = 1.0, RANK_ONE[place] * tol
    m = (u * s) @ v.T
    with pytest.MonkeyPatch.context() as mp:
        calls = _rank_calls(mp)
        basis, got = nullspace_and_spectrum(m, tol)
    want, s_want = _two_pass_nullspace_and_spectrum(m, tol)
    assert len(want) == cols - 1 - (RANK_ONE[place] > 1)
    # the rank-one path calls none of the spied routines after Cholesky
    fired = set(calls) <= {"cholesky failed"}
    if RANK_ONE[place] >= 0.5:
        assert not fired
    elif RANK_ONE[place] <= 1e-4:
        assert fired
    if fired:
        assert basis.shape == want.shape
        # the sine of the largest principal angle between the kernels
        assert np.linalg.norm(basis.T @ basis - want.T @ want, 2) <= 1e-12
        np.testing.assert_allclose(basis @ basis.T, np.eye(cols - 1), atol=1e-14)
        assert len(got) == 2
        assert got[0] == pytest.approx(s_want[0], rel=1e-12)
        assert s_want[1] <= got[1] <= tol / 2 * got[0]
    else:
        assert {"qr", "svd"} & set(calls)


def test_rank_one_kernel_pins_what_the_svd_pins():
    # s_2 / s_1 = 3e-9 is within the rank-one bound, and v_1 is the first
    # axis, so the kernel does not reach the first column: it is pinned.
    # The largest row, (1, 3e-9, 0) / sqrt(2), is 3e-9 from v_1, so its
    # complement would reach 3e-9 > abs_tol there.
    m = np.array([[1.0, 3e-9, 0.0], [1.0, -3e-9, 0.0]]) / np.sqrt(2)
    tol = DEFAULT_TOL
    with pytest.MonkeyPatch.context() as mp:
        calls = _rank_calls(mp)
        basis, s = nullspace_and_spectrum(m, tol.rank_rel_tol)
    assert calls == []  # wide: no Cholesky, and the rank-one path decides
    want, s_want = _two_pass_nullspace_and_spectrum(m, tol.rank_rel_tol)
    assert basis.shape == want.shape == (2, 3)
    assert s_want[1] <= s[1] <= tol.rank_rel_tol / 2 * s[0]

    def pinned(b):  # as decomposition_analysis pins a coefficient
        return np.flatnonzero(np.abs(b).max(axis=0) < tol.abs_tol).tolist()

    assert pinned(basis) == pinned(want) == [0]


def test_single_column_keeps_one_singular_value():
    # 1e-15 puts the certification floor above the column, so the Cholesky
    # fails and the rank-one path decides; either way one value remains,
    # so a certificate's rank_margin is (1.0, 0.0)
    m = np.random.default_rng(3).normal(size=(10, 1))
    for tol, path in [(DEFAULT_TOL.rank_rel_tol, ["cholesky", "eigvalsh"]),
                      (1e-15, ["cholesky failed"])]:
        with pytest.MonkeyPatch.context() as mp:
            calls = _rank_calls(mp)
            basis, s = nullspace_and_spectrum(m, tol)
        assert calls == path
        assert basis.shape == (0, 1)
        assert s == pytest.approx([np.linalg.norm(m)], rel=1e-12)


@pytest.mark.parametrize("n, m, k, rows", [(3, 2, 3, 125), (3, 3, 2, 64), (4, 2, 2, 81)])
def test_lhs_nnls_sees_one_row_per_no_signaling_coordinate(monkeypatch, n, m, k, rows):
    # one shared ket on a full support, weighted by a local box that is not
    # a product: the per-party candidate, found without a solver, misses
    # the box, and the one solve is the joint weight system, whose rows are
    # the dim Q = prod(m_i (k_i - 1) + 1) no-signaling coordinates
    # (Collins-Gisin), not the 216, 216 and 256 support positions
    scen = assemblages.Scenario((m,) * n, (k,) * n, (2,))
    p = shared_ket_local_box(np.random.default_rng(5), scen)
    assert len(p.support) == (m * k) ** n
    shapes, solve = [], assemblages.nnls
    monkeypatch.setattr(assemblages, "nnls", lambda a, b: shapes.append(a.shape) or solve(a, b))
    assert isinstance(assemblages.pure_lhs_decide(p), assemblages.LhsModel)
    assert len(assemblages.consistent_strategies(p)) == (k ** m) ** n
    assert shapes == [(rows, (k ** m) ** n)]


@pytest.mark.parametrize("n, m, k", [(3, 2, 3), (3, 3, 2), (4, 2, 2)])
def test_lhs_of_a_product_state_calls_no_solver(monkeypatch, n, m, k):
    # a product state on a full support: each party's marginal box is split
    # in closed form, so no NNLS runs, and the model has at most
    # prod(m_i (k_i - 1) + 1) hidden variables and rebuilds the assemblage
    s = pure_realization(np.random.default_rng(5), n, m, k, 2, entangled=False)
    p = assemblages.canonicalize_pure(s)
    assert len(p.support) == (m * k) ** n
    shapes, solve = [], assemblages.nnls
    monkeypatch.setattr(assemblages, "nnls", lambda a, b: shapes.append(a.shape) or solve(a, b))
    model = assemblages.pure_lhs_decide(p)
    assert isinstance(model, assemblages.LhsModel)
    assert shapes == []
    assert len(model.weights) <= (m * (k - 1) + 1) ** n
    rebuilt = assemblages.lhs_assemblage(model, s.scenario)
    assert np.abs(rebuilt.members - s.members).max() <= 1e-14
