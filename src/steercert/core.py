"""Dense complex linear algebra primitives shared by the whole package.

Operators live on tensor products of finite-dimensional subsystems.  The
basis index of a product vector ``|i1 ... ik>`` is big-endian: the first
tensor factor is the most significant digit, so ``|i1 i2>`` on dimensions
``(d1, d2)`` sits at row ``i1 * d2 + i2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, prod

import numpy as np


class NnlsDidNotConverge(RuntimeError):
    """Raised when the active-set NNLS solver exceeds its iteration cap."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance budget used across all verification routines.

    ``rank_rel_tol`` is relative: it multiplies the largest singular value
    of whatever matrix is being ranked.  ``nnls_residual_tol`` bounds two
    residuals: that of the LHS weight system, and that of the reference
    coefficients in an extremality certificate's system.
    """

    abs_tol: float = 1e-9
    rank_rel_tol: float = 1e-8
    nnls_residual_tol: float = 1e-7

    def __post_init__(self):
        for name in ("abs_tol", "rank_rel_tol", "nnls_residual_tol"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()

# How far a constructor lets a trace, a sum, or a Hermiticity or PSD
# deviation sit from exact.  Fixed: the tolerance flags do not reach the
# checks an object passes while it is built.
BUILD_SLACK = 1e-8


def _as_finite_complex(data, shape_kind: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry in %s" % shape_kind)
    return arr


def _as_dims(dims) -> tuple:
    dims = tuple(map(int, dims))
    if not dims or min(dims) < 1:
        raise ValueError("dims must be a nonempty list of positive integers")
    return dims


@dataclass(frozen=True)
class Op:
    """A square complex matrix tagged with an ordered subsystem split."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
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
        dims = _as_dims(self.dims)
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


def kron(a: Op, b: Op) -> Op:
    """Tensor product; dims concatenate, big-endian index convention."""
    return Op(a.dims + b.dims, np.kron(a.data, b.data))


def output_trace(stack: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Partial trace over the output factor of every Choi matrix of a
    ``(count, d_out * d_in, d_out * d_in)`` stack: a ``(count, d_in, d_in)``
    array."""
    return np.einsum("nkikj->nij", stack.reshape(-1, d_out, d_in, d_out, d_in))


def is_hermitian(a: Op, tol: float = DEFAULT_TOL.abs_tol) -> bool:
    return bool(np.max(np.abs(a.data - a.data.conj().T)) <= tol)


def psd_deviation(stack: np.ndarray) -> np.ndarray:
    """How far each matrix of a ``(count, D, D)`` stack is from PSD: the
    larger of its max-abs Hermiticity deviation and ``-lambda_min`` of its
    Hermitian part."""
    adjoint = stack.conj().transpose(0, 2, 1)
    hermiticity = np.abs(stack - adjoint).reshape(len(stack), -1).max(axis=1)
    return np.maximum(hermiticity, -np.linalg.eigvalsh((stack + adjoint) / 2)[:, 0])


def is_psd(a: Op, tol: float = DEFAULT_TOL.abs_tol) -> bool:
    """Hermitian within ``tol`` with minimal eigenvalue >= -tol."""
    return bool(psd_deviation(a.data[None])[0] <= tol)


def nullspace_and_spectrum(m: np.ndarray,
                           tol: float = DEFAULT_TOL.rank_rel_tol):
    """Kernel basis and singular values of a real matrix.

    Returns ``(basis, s)``: ``basis`` is as for :func:`nullspace`, ``s``
    holds the singular values in descending order (empty when every entry
    is zero).  All-zero rows are dropped first; a system that still has
    at least as many rows as columns is replaced by the ``R`` of its QR
    factorization, which has the same singular values and the same right
    null space, so the SVD never sees more rows than columns.  ``R`` is
    ranked from its singular values alone, and its right singular vectors
    are computed only when the kernel is not empty.  A diagonal entry of
    ``R`` at or below ``tol`` times the largest proves the kernel non-empty
    (for a triangular ``R``, ``s_min <= min |R_ii|`` and
    ``s_max >= max |R_ii|``), and so does a wide system: then the one SVD
    taken is the full one.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    cols = m.shape[1]
    m = m[np.any(m != 0.0, axis=1)]
    if m.shape[0] == 0:
        return np.eye(cols), np.zeros(0)
    if m.shape[0] >= cols:
        m = np.linalg.qr(m, mode="r")
        diagonal = np.abs(np.diagonal(m))
        if diagonal.min() > tol * diagonal.max():
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] > tol * s[0]:
                return np.zeros((0, cols)), s
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
