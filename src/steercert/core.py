"""Dense complex linear algebra primitives shared by the whole package.

Operators live on tensor products of finite-dimensional subsystems.  The
basis index of a product vector ``|i1 ... ik>`` is big-endian: the first
tensor factor is the most significant digit, so ``|i1 i2>`` on dimensions
``(d1, d2)`` sits at row ``i1 * d2 + i2``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from math import prod

import numpy as np


class NnlsDidNotConverge(RuntimeError):
    """Raised when the active-set NNLS solver exceeds its iteration cap."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance budget used across all verification routines.

    ``rank_rel_tol`` is relative: it multiplies the largest singular value
    of whatever matrix is being ranked.
    """

    abs_tol: float = 1e-9
    rank_rel_tol: float = 1e-8
    nnls_residual_tol: float = 1e-7

    def __post_init__(self):
        for name in ("abs_tol", "rank_rel_tol", "nnls_residual_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def _as_finite_complex(data, shape_kind: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry in %s" % shape_kind)
    return arr


@dataclass(frozen=True)
class Op:
    """A square complex matrix tagged with an ordered subsystem split."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        object.__setattr__(self, "dims", dims)
        arr = _as_finite_complex(self.data, "operator")
        side = prod(dims)
        if arr.shape != (side, side):
            raise ValueError(
                f"matrix shape {arr.shape} does not match dims {dims}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.data))


@dataclass(frozen=True)
class Ket:
    """A complex column vector tagged with an ordered subsystem split."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        object.__setattr__(self, "dims", dims)
        arr = _as_finite_complex(self.data, "ket").reshape(-1)
        if arr.shape != (prod(dims),):
            raise ValueError(f"vector length {arr.size} does not match dims {dims}")
        object.__setattr__(self, "data", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def outer(self) -> Op:
        """Rank-one operator |v><v|."""
        return Op(self.dims, np.outer(self.data, self.data.conj()))


def identity(dims) -> Op:
    dims = tuple(dims)
    return Op(dims, np.eye(prod(dims), dtype=complex))


def kron(a: Op, b: Op) -> Op:
    """Tensor product; dims concatenate, big-endian index convention."""
    return Op(a.dims + b.dims, np.kron(a.data, b.data))


def kron_all(ops) -> Op:
    ops = list(ops)
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


def partial_trace(a: Op, keep) -> Op:
    """Trace out all subsystems not in ``keep``; kept order is preserved.

    ``keep`` may be any iterable of subsystem indices; keeping everything
    returns the input unchanged.
    """
    n = len(a.dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"subsystem index out of range for {n} subsystems")
    if len(keep) == n:
        return a
    letters = string.ascii_lowercase
    if 2 * n > len(letters):
        raise ValueError("too many subsystems")
    row = list(letters[:n])
    col = [letters[n + k] if k in keep else letters[k] for k in range(n)]
    out = [row[k] for k in keep] + [col[k] for k in keep]
    tensor = a.data.reshape(a.dims + a.dims)
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), tensor)
    kept_dims = tuple(a.dims[k] for k in keep) if keep else (1,)
    side = prod(kept_dims)
    return Op(kept_dims, reduced.reshape(side, side))


def is_hermitian(a: Op, tol: float = DEFAULT_TOL.abs_tol) -> bool:
    return bool(np.max(np.abs(a.data - a.data.conj().T)) <= tol)


def is_psd(a: Op, tol: float = DEFAULT_TOL.abs_tol) -> bool:
    """Hermitian within ``tol`` with minimal eigenvalue >= -tol."""
    if not is_hermitian(a, tol):
        return False
    evals = np.linalg.eigvalsh((a.data + a.data.conj().T) / 2)
    return bool(evals[0] >= -tol)


def op_rank(a: Op, rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> int:
    """Numerical rank: singular values above ``rank_rel_tol * s_max``."""
    s = np.linalg.svd(a.data, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_rel_tol * s[0]))


def principal_eigenvector(a: Op) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of a Hermitian operator."""
    _, vecs = np.linalg.eigh((a.data + a.data.conj().T) / 2)
    return vecs[:, -1]


def proportional_rank_one(a: Op, b: Op, tol: float = DEFAULT_TOL.abs_tol,
                          rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> bool:
    """Whether ``a = lam * b`` for some ``lam > 0``; two zeros count as equal.

    Intended for PSD rank-one operators: proportionality is tested through
    the overlap of normalized principal eigenvectors, which is phase
    invariant.  Raises on inputs of rank two or more.
    """
    ra, rb = op_rank(a, rank_rel_tol), op_rank(b, rank_rel_tol)
    if ra > 1 or rb > 1:
        raise ValueError("proportional_rank_one expects operators of rank <= 1")
    if ra == 0 and rb == 0:
        return True
    if ra == 0 or rb == 0:
        return False
    ta, tb = a.trace().real, b.trace().real
    if ta <= 0 or tb <= 0:
        return False
    u = principal_eigenvector(a)
    v = principal_eigenvector(b)
    return bool(abs(np.vdot(u, v)) > 1 - tol)


def nullspace_and_spectrum(m: np.ndarray,
                           tol: float = DEFAULT_TOL.rank_rel_tol):
    """Kernel basis and singular values of a real matrix.

    Returns ``(basis, s)``: ``basis`` is as for :func:`nullspace`, ``s``
    holds the singular values in descending order (empty when every entry
    is zero).  All-zero rows are dropped first; a system that still has
    more rows than columns is replaced by the ``R`` of its QR
    factorization, which has the same singular values and the same right
    null space, so the SVD never sees more rows than columns.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    cols = m.shape[1]
    m = m[np.any(m != 0.0, axis=1)]
    if m.shape[0] == 0:
        return np.eye(cols), np.zeros(0)
    if m.shape[0] > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vt = np.linalg.svd(m, full_matrices=True)  # whole kernel if wide
    num_rank = int(np.count_nonzero(s > tol * s[0]))
    return vt[num_rank:], s


def nullspace(m: np.ndarray, tol: float = DEFAULT_TOL.rank_rel_tol) -> np.ndarray:
    """Orthonormal basis of the kernel of a real matrix, rows = basis vectors.

    Singular values at or below ``tol * s_max`` count as zero; a matrix
    with no non-zero entry has the whole space as its kernel.
    """
    return nullspace_and_spectrum(m, tol)[0]


def nnls(m: np.ndarray, b: np.ndarray):
    """Componentwise-nonnegative least squares via the active-set method.

    Returns ``(x, residual_norm)``; raises :class:`NnlsDidNotConverge` if
    the solver hits its iteration cap.
    """
    import scipy.optimize  # deferred: it dominates the package import time

    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    try:
        x, rnorm = scipy.optimize.nnls(m, b)
    except RuntimeError as exc:
        raise NnlsDidNotConverge(str(exc)) from exc
    return x, float(rnorm)
