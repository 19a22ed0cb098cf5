"""Dense complex linear algebra primitives shared by the whole package.

Every operator of the package is a complex ndarray on a tensor product of
finite-dimensional subsystems.  The basis index of a product vector
``|i1 ... ik>`` is big-endian: the first tensor factor is the most
significant digit, so ``|i1 i2>`` on dimensions ``(d1, d2)`` sits at row
``i1 * d2 + i2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np


class NnlsDidNotConverge(RuntimeError):
    """Raised when the active-set NNLS solver exceeds its iteration cap."""


class ScenarioError(ValueError):
    """Raised when a constraint family or a check is not defined for the
    scenario it is given: the fault is in the scenario itself."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance budget used across all verification routines.

    ``rank_rel_tol`` is relative: it multiplies the largest singular value
    of whatever matrix is being ranked, and lies below one: at one or
    more, every singular value would count as zero.  It is at least the
    float epsilon: below it, rounding alone would set the rank.
    ``nnls_residual_tol`` bounds two residuals: that of the LHS weight
    system, and that of the reference coefficients in an extremality
    certificate's system.
    """

    abs_tol: float = 1e-9
    rank_rel_tol: float = 1e-8
    nnls_residual_tol: float = 1e-7

    def __post_init__(self):
        for name in ("abs_tol", "rank_rel_tol", "nnls_residual_tol"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.rank_rel_tol >= 1:
            raise ValueError("rank_rel_tol must be below 1")
        if self.rank_rel_tol < np.finfo(float).eps:
            raise ValueError("rank_rel_tol must be at least the float epsilon "
                             f"{np.finfo(float).eps:.3g}: below it, rounding sets the rank")


DEFAULT_TOL = Tolerances()

# How far a constructor lets a trace, a sum, or a Hermiticity or PSD
# deviation sit from exact.  Fixed: the tolerance flags do not reach the
# checks an object passes while it is built.
BUILD_SLACK = 1e-8


def checked_copy(data, dtype, what: str, shape: tuple = None) -> np.ndarray:
    """``data`` as a read-only ``dtype`` copy that the caller cannot write
    through, checked to be finite and, when ``shape`` is given, to have
    that shape; ``what`` names the data in the message of a fault."""
    arr = np.array(data, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entry in {what}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} have shape {arr.shape}, expected {shape}")
    arr.flags.writeable = False
    return arr


def output_trace(stack: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Partial trace over the output factor of every Choi matrix of a
    ``(count, d_out * d_in, d_out * d_in)`` stack: a ``(count, d_in, d_in)``
    array."""
    return np.einsum("nkikj->nij", stack.reshape(-1, d_out, d_in, d_out, d_in))


def psd_deviation_and_spectra(stack: np.ndarray):
    """How far each matrix of a ``(count, D, D)`` stack is from PSD, with
    the ascending eigenvalues of each Hermitian part: the deviation is the
    larger of the max-abs Hermiticity deviation and ``-lambda_min``."""
    adjoint = stack.conj().transpose(0, 2, 1)
    hermiticity = np.abs(stack - adjoint).max(axis=(1, 2))
    spectra = np.linalg.eigvalsh((stack + adjoint) / 2)
    return np.maximum(hermiticity, -spectra[:, 0]), spectra


def psd_deviation(stack: np.ndarray) -> np.ndarray:
    """:func:`psd_deviation_and_spectra` without the spectra."""
    return psd_deviation_and_spectra(stack)[0]


def _gamma(k: int) -> float:
    """``gamma_k = k u / (1 - k u)``, ``u`` the unit roundoff: the bound on
    the relative rounding error of ``k`` floating-point operations."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1 - ku)


def _certified_spectrum(m: np.ndarray, tol: float):
    """Singular values of a tall ``m`` with no all-zero row, descending,
    when a Cholesky factorization proves ``s_min > tol * ||m||_F``, and with
    that ``s_min`` far enough from zero that they are computed within
    ``tol`` (relative) from the Gram matrix; ``None`` otherwise.

    ``G = fl(m^T m)`` is factored with its diagonal lowered by a shift
    ``c``; ``r, n = m.shape``, ``f = ||m||_F^2``, ``u`` is the unit
    roundoff and ``eta`` the smallest subnormal.  ``c`` is the sum of:

    - ``tol^2 f``, the threshold: ``s_min^2 > tol^2 f`` implies
      ``s_min > tol * s_max``, as ``||m||_F >= s_max``.
    - ``gamma_r f``: each entry of ``G`` is a length-``r`` dot product, so
      ``|G - m^T m| <= gamma_r |m|^T |m|`` entrywise, and the 2-norm of
      the right-hand side is at most ``f`` (Higham, *Accuracy and
      Stability of Numerical Algorithms*, ch. 3).
    - ``(gamma_{n+1} / (1 - gamma_{n+1}) + u) tr G``: a floating-point
      Cholesky of a symmetric ``A`` that runs to completion is exact for
      some ``A + dA`` with ``|dA_ij| <= gamma_{n+1} / (1 - gamma_{n+1})
      sqrt(A_ii A_jj)``, whose 2-norm is at most that factor times
      ``tr A`` (Demmel; Rump, "Verification of positive definiteness",
      BIT 46:433-452, 2006; Higham, ch. 10).  So ``A`` has no eigenvalue
      below ``-gamma_{n+1} / (1 - gamma_{n+1}) tr A``.  Subtracting ``c``
      from each diagonal entry rounds it by at most ``u G_ii <= u tr G``.
    - ``n (r + 8 (n + 2) + 4 tr G) eta``: gradual underflow adds at most
      ``eta`` per product or quotient, so at most ``n r eta`` to the
      2-norm of the error in ``G`` and ``n (n + 1 + sqrt(max G_ii)) eta``
      to that of ``dA``; this term covers both.
    - ``(r + n) eps f / tol``, the floor at which the spectrum is accurate:
      the eigenvalues of ``G`` carry an absolute error of about
      ``(r + n) u f`` (forming ``G``, then a backward-stable
      ``eigvalsh``), and with ``s_min^2`` above twice that divided by
      ``tol`` the ratio ``s_min / s_max`` taken from them is within
      ``tol`` (relative) of the exact one.

    ``f`` and ``tr G`` are bounded above by the computed trace ``t``
    times ``1 + 2 gamma_{r+n}``, which together with the few operations
    that form ``c`` gives the final factor ``1 + 2 gamma_{r+n+10}``.  If
    the factorization of ``G - c I`` succeeds, then ``s_min^2`` exceeds
    the threshold term plus the floor: the kernel is empty, as the
    threshold ``tol * s_max`` decides, and the spectrum is taken from
    ``eigvalsh(G)``.
    """
    rows, cols = m.shape
    g = m.T @ m
    trace = float(np.trace(g))
    info = np.finfo(float)
    cholesky = _gamma(cols + 1)
    shift = ((tol * tol + _gamma(rows) + cholesky / (1 - cholesky) + info.eps / 2
              + (rows + cols) * info.eps / tol) * trace
             + cols * (rows + 8 * (cols + 2) + 4 * trace) * info.smallest_subnormal
             ) * (1 + 2 * _gamma(rows + cols + 10))
    # G - c I in G's own storage; its diagonal is put back, exactly
    diagonal = np.diagonal(g).copy()
    g.flat[::cols + 1] -= shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    g.flat[::cols + 1] = diagonal
    return np.sqrt(np.linalg.eigvalsh(g)[::-1])


def _rank_one(m: np.ndarray, tol: float):
    """Kernel and spectrum of an ``m`` with no all-zero row, when rank one
    is proven with ``s_2 <= tol * s_1 / 2``; ``None`` otherwise.

    ``w`` is the row of ``m`` of largest norm, normalized in floating
    point, and ``y = fl(m w)``.  For any vectors, ``s_1 >= ||m w|| / ||w||``
    and, as ``y w^T`` has rank one, ``s_2 <= ||m - y w^T||_F``
    (Eckart-Young).  ``r, n = m.shape``, ``u`` is the unit roundoff,
    ``eta`` the smallest subnormal and ``g = 1 + 2 gamma_{r n + r + n + 10}``;
    each computed quantity is turned into a bound:

    - ``||m - y w^T||_F <= (fl(||fl(m - fl(y w^T))||_F) + gamma_2 ||y||
      ||w||) g``: the product and the difference of each entry round by
      ``u`` each, and a norm of ``N`` squares carries a relative error of
      at most ``gamma_{N+1}`` (Higham, *Accuracy and Stability of
      Numerical Algorithms*, ch. 3).
    - ``||m w|| >= fl(||y||) (2 - g) - gamma_n ||m||_F ||w||``: each
      entry of ``y`` is a length-``n`` dot product, within
      ``gamma_n |m| |w|``; ``||m||_F <= ||m - y w^T||_F + ||y|| ||w||``.
    - ``||w|| <= (fl(||w||) + sqrt(n eta)) g``.
    - Gradual underflow adds at most ``eta`` to each product and ``N eta``
      to a sum of ``N`` squares: ``4 sqrt((r + 1) (n + 1) eta)`` covers it
      in every norm above.

    When the bounds give ``s_2 / s_1 <= tol / 2`` (and ``tol < 1``, below
    which the threshold keeps ``s_1``), the rank is one, as the threshold
    ``tol * s_max`` decides, with room for the SVD's own rounding of about
    ``eps * s_1``.  The kernel is the complement of ``z = fl(m^T y)``, one
    power step from ``w``: the rows after the first of the Householder
    reflector that maps ``z`` onto the first axis.  The tangent of the
    angle from ``w`` to ``v_1`` is at most about ``sqrt(r) s_2 / s_1``,
    which can exceed ``abs_tol`` on this path; ``m^T m`` shrinks it by
    ``(s_2 / s_1)^2``, far below the rounding of ``z`` (``z^T w =
    ||y||^2 > 0``, so ``z`` is not zero).  The spectrum is
    ``[fl(||y||), bound]``, where ``bound / fl(||y||)`` is the bound on
    ``s_2 / s_1``, cut to ``min(r, n)`` values.
    """
    rows, cols = m.shape
    w = m[np.argmax(np.einsum("ij,ij->i", m, m))]
    w = w / np.linalg.norm(w)
    y = m @ w
    g = 1 + 2 * _gamma(rows * cols + rows + cols + 10)
    under = 4 * np.sqrt((rows + 1) * (cols + 1) * np.finfo(float).smallest_subnormal)
    norm, w_norm = np.linalg.norm(y), np.linalg.norm(w)
    w_upper = (w_norm + under) * g
    residual = (np.linalg.norm(m - np.outer(y, w)) + _gamma(2) * norm * w_upper) * g + under
    frobenius = residual + (norm * g + under) * w_upper
    lower = (norm * (2 - g) - _gamma(cols) * frobenius * w_upper - under) / w_upper
    if not (tol < 1 and 0 < lower and residual <= tol / 2 * lower):
        return None
    v = m.T @ y
    v[0] += np.copysign(np.linalg.norm(v), v[0])
    kernel = np.eye(cols)[1:] - np.outer(v[1:], v) * (2 / (v @ v))
    return kernel, np.array([norm, norm * residual / lower])[:min(rows, cols)]


def nullspace_and_spectrum(m: np.ndarray,
                           tol: float = DEFAULT_TOL.rank_rel_tol):
    """Kernel basis and singular values of a real matrix.

    Returns ``(basis, s)``: ``basis`` is as for :func:`nullspace`, ``s``
    holds the singular values in descending order (empty when every entry
    is zero).  All-zero rows are dropped first; ``m`` is copied only when
    it has one.

    A system that still has at least as many rows as columns is first
    tried on the certified path (:func:`_certified_spectrum`): a Cholesky
    factorization of its Gram matrix, shifted down by the threshold, the
    rounding of the computation and an accuracy floor, proves the kernel
    empty.  Then ``s`` is the square roots of the Gram matrix's
    eigenvalues, within ``tol`` (relative) of the SVD's at ``s_min``.

    When that factorization fails, or the system is wide, the rank-one
    path (:func:`_rank_one`) is tried: a bound on the distance of ``m``
    from the rank-one matrix through its largest row proves
    ``s_2 <= tol * s_1 / 2``.  Then the kernel is the complement of
    ``m^T m w``, and ``s`` is ``[||m w||, bound on s_2]``: its second value is an
    upper bound, not a singular value.

    Otherwise the system is replaced by the ``R`` of its QR
    factorization, which has the same singular values and the same right
    null space, so the SVD never sees more rows than columns.  ``R`` is
    ranked from its singular values alone, and its right singular vectors
    are computed only when the kernel is not empty.  A diagonal entry of
    ``R`` at or below ``tol`` times the largest proves the kernel
    non-empty (for a triangular ``R``, ``s_min <= min |R_ii|`` and
    ``s_max >= max |R_ii|``), and so does a wide system: then the one SVD
    taken is the full one.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    cols = m.shape[1]
    nonzero = m.any(axis=1)
    if not nonzero.all():
        m = m[nonzero]
    if m.shape[0] == 0:
        return np.eye(cols), np.zeros(0)
    tall = m.shape[0] >= cols
    if tall:
        s = _certified_spectrum(m, tol)
        if s is not None:
            return np.zeros((0, cols)), s
    found = _rank_one(m, tol)
    if found is not None:
        return found
    if tall:
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
