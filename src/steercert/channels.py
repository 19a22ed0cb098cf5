"""States, measurements and channels, with the Choi transform as the
canonical channel representation.

A Choi matrix lives on ``output (x) input`` (output factor first).  With
the normalized maximally entangled state ``(1/sqrt(d)) sum_i |ii>``, the
map action is recovered as ``L(X) = d_in * Tr_in[(1_out (x) X^T) J]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .core import (
    BUILD_SLACK,
    DEFAULT_TOL,
    checked_copy,
    output_trace,
    psd_deviation,
    psd_deviation_and_spectra,
)


def _held(dims, matrix):
    """``dims`` as a tuple of ints and ``matrix`` as a read-only complex
    copy, checked to be finite and square on those subsystems."""
    dims = tuple(map(int, dims))
    if not dims or min(dims) < 1:
        raise ValueError("dims must be a nonempty list of positive integers")
    matrix = checked_copy(matrix, complex, "operator")
    side = prod(dims)
    if matrix.shape != (side, side):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    return dims, matrix


@dataclass(frozen=True)
class State:
    """Density matrix on the subsystems ``dims``, held as a read-only
    complex copy: Hermitian and PSD within ``abs_tol``, unit trace within
    ``BUILD_SLACK``."""

    dims: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, matrix = _held(self.dims, self.matrix)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)
        if psd_deviation(matrix[None])[0] > DEFAULT_TOL.abs_tol:
            raise ValueError("state must be Hermitian and PSD")
        if abs(np.trace(matrix) - 1) > BUILD_SLACK:
            raise ValueError("state must have unit trace")


def pure_state(dims, ket) -> State:
    """``|ket><ket|`` on the subsystems ``dims``, divided by the squared
    norm of ``ket``."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return State(dims, np.outer(ket, ket.conj()) / np.linalg.norm(ket) ** 2)


@dataclass(frozen=True)
class Povm:
    """Measurement effects as one read-only complex array of shape
    ``(settings, outcomes, dim, dim)``.

    ``effects[x, a]`` is the effect for outcome ``a`` under setting ``x``.
    Effects of each setting must be PSD and sum to the identity.
    """

    dim: int
    effects: np.ndarray = field(repr=False)

    def __post_init__(self):
        effects = checked_copy(self.effects, complex, "effects")
        if effects.ndim != 4 or effects.shape[2:] != (self.dim, self.dim):
            raise ValueError(f"effects have shape {effects.shape}, expected "
                             f"(settings, outcomes, {self.dim}, {self.dim})")
        object.__setattr__(self, "effects", effects)
        # The faults in the order of a walk over (setting, outcome): the first
        # setting x with an effect that is not PSD is named after the sums of
        # the settings before it.
        m, k, d, _ = effects.shape
        not_psd = (psd_deviation(effects.reshape(-1, d, d)) > BUILD_SLACK).reshape(m, k)
        off = np.abs(effects.sum(axis=1) - np.eye(d)).max(axis=(1, 2)) > BUILD_SLACK
        x = int(np.argmax(np.append(not_psd.any(axis=1), True)))
        if off[:x].any():
            raise ValueError(f"effects of setting {np.argmax(off)} do not sum to identity")
        if x < m:
            raise ValueError(f"effect ({x},{np.argmax(not_psd[x])}) is not PSD")

    def covers(self, settings: int, outcomes: int) -> bool:
        """Whether there are at least ``settings`` settings and at least
        ``outcomes`` effects to each."""
        return self.effects.shape[0] >= settings and self.effects.shape[1] >= outcomes


def projective_povm(bases) -> Povm:
    """POVM whose setting-``x`` effects project on the kets ``bases[x]``."""
    kets = np.asarray(bases, dtype=complex)  # (settings, outcomes, dim)
    return Povm(kets.shape[-1], kets[..., :, None] * kets[..., None, :].conj())


@dataclass(frozen=True)
class KrausChannel:
    """Channel in Kraus form, with the operators as one read-only complex
    array of shape ``(operators, out_dim, in_dim)``: ``kraus_ops[k]`` maps
    ``in_dim`` to ``out_dim``."""

    in_dim: int
    out_dim: int
    kraus_ops: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.out_dim, self.in_dim)
        try:  # no operators at all are (0, *shape)
            ops = np.array(list(self.kraus_ops) or np.empty((0,) + shape), dtype=complex)
        except ValueError:  # a ragged list
            ops = np.empty(0)
        if ops.shape[1:] != shape:
            raise ValueError("Kraus operator has mismatched shape")
        ops = checked_copy(ops, complex, "Kraus operators")
        object.__setattr__(self, "kraus_ops", ops)
        total = np.einsum("koi,koj->ij", ops.conj(), ops)
        if np.max(np.abs(total - np.eye(self.in_dim))) > BUILD_SLACK:
            raise ValueError("Kraus operators do not satisfy completeness")


@dataclass(frozen=True)
class ChoiOp:
    """Choi matrix of a linear map on ``out_dims + in_dims``, held as a
    read-only complex copy; Hermitian within ``BUILD_SLACK``."""

    in_dims: tuple
    out_dims: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        _, matrix = _held(out_dims + in_dims, self.matrix)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "matrix", matrix)
        if np.max(np.abs(matrix - matrix.conj().T)) > BUILD_SLACK:
            raise ValueError("Choi matrix must be Hermitian")

    @property
    def in_dim(self) -> int:
        return prod(self.in_dims)

    @property
    def out_dim(self) -> int:
        return prod(self.out_dims)


def choi_of_kraus(k: KrausChannel, in_dims=None, out_dims=None) -> ChoiOp:
    """Choi matrix of a Kraus channel, ``sum_k vec(K_k) vec(K_k)^† / d_in``
    with ``vec`` row-major over ``(out, in)``; unit trace, PSD."""
    v = k.kraus_ops.reshape(len(k.kraus_ops), -1)
    in_dims = tuple(in_dims) if in_dims is not None else (k.in_dim,)
    out_dims = tuple(out_dims) if out_dims is not None else (k.out_dim,)
    return ChoiOp(in_dims, out_dims, v.T @ v.conj() / k.in_dim)


def choi_of_unitary(u: np.ndarray, in_dims=None, out_dims=None) -> ChoiOp:
    d = u.shape[0]
    return choi_of_kraus(KrausChannel(d, d, u[None]), in_dims, out_dims)


def apply_choi(c: ChoiOp, x) -> np.ndarray:
    """The map whose Choi matrix is ``c``, applied to the ``(d_in, d_in)``
    array ``x``: ``d_in * sum_mn J[(o, m), (y, n)] x[m, n]``."""
    x = np.asarray(x)
    if x.shape != (c.in_dim, c.in_dim):
        raise ValueError("input operator dimension does not match the channel")
    j = c.matrix.reshape(c.out_dim, c.in_dim, c.out_dim, c.in_dim)
    return c.in_dim * np.einsum("omyn,mn->oy", j, x)


def choi_from_map(fn, in_dims, out_dims) -> ChoiOp:
    """Assemble a Choi matrix by probing ``fn``, which maps a ``(d_in, d_in)``
    array to a ``(d_out, d_out)`` array, on all matrix units."""
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    di, do = prod(in_dims), prod(out_dims)
    j = np.zeros((do, di, do, di), dtype=complex)
    for m in range(di):
        for n in range(di):
            unit = np.zeros((di, di), dtype=complex)
            unit[m, n] = 1.0
            j[:, m, :, n] = fn(unit) / di
    mat = j.reshape(do * di, do * di)
    return ChoiOp(in_dims, out_dims, (mat + mat.conj().T) / 2)


@dataclass(frozen=True)
class CptpReport:
    cp: bool
    tp: bool
    min_eigenvalue: float
    tp_deviation: float

    @property
    def ok(self) -> bool:
        return self.cp and self.tp


def verify_cptp(c: ChoiOp, tol: float = DEFAULT_TOL.abs_tol) -> CptpReport:
    """Complete positivity (PSD Choi) and trace preservation checks.

    Trace preservation: the partial trace of the Choi matrix over the
    output factor must equal ``1/d_in``.
    """
    deviation, evals = psd_deviation_and_spectra(c.matrix[None])
    cp = bool(deviation[0] <= tol)
    reduced = output_trace(c.matrix, c.out_dim, c.in_dim)[0]
    dev = float(np.max(np.abs(reduced - np.eye(c.in_dim) / c.in_dim)))
    return CptpReport(cp=cp, tp=dev <= tol,
                      min_eigenvalue=float(evals[0, 0]), tp_deviation=dev)


def random_kraus_channel(rng: np.random.Generator, in_dim: int, out_dim: int,
                         n_kraus: int = None) -> KrausChannel:
    """Haar-ish random channel from a random isometry, for testing."""
    if n_kraus is None:
        n_kraus = in_dim * out_dim
    n_kraus = min(n_kraus, in_dim * out_dim)
    if out_dim * n_kraus < in_dim:
        raise ValueError(f"a channel from dimension {in_dim} needs out_dim * n_kraus >= "
                         f"{in_dim}, got {out_dim} * {n_kraus}")
    g = rng.normal(size=(out_dim * n_kraus, in_dim)) \
        + 1j * rng.normal(size=(out_dim * n_kraus, in_dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(in_dim, out_dim, q[:, :in_dim].reshape(n_kraus, out_dim, in_dim))

