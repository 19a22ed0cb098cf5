"""The constraint families, each defined once.

A family is a list of linear constraints over the positions ``(a, x)`` of
a scenario.  A constraint sums signed members, optionally reduces the sum
(partial trace over the output factor, or full trace), and asks the result
to equal a target: zero, a matrix, or ``1`` for a trace.

- **Full no-signaling** (:func:`full_ns`): for every proper nonempty subset
  of parties with fixed outcomes and settings, the member summed over the
  other parties' outcomes does not depend on their settings; the total is
  setting independent with unit trace.
- **No-signaling channels** (:attr:`ConstraintMode.NS_CHANNEL`): the full
  family on Choi matrices, and the total output-traces to the maximally
  mixed input (:func:`output_trace_condition`).
- **Relaxed A|BC** (:func:`asym_ns`), two parties only: the sum over A's
  outcomes does not depend on A's setting; the output-traced sum over B's
  outcomes does not depend on B's setting; the total is setting independent
  and output-traces to the maximally mixed input.

The list is born as arrays.  It is cut into parts (:class:`Constraints`),
each a rectangle of positions, one row per constraint, computed by index
arithmetic over the scenario, with one sign per column, one reduction and
one target.  A constraint's name is formatted only when a report or a test
reads the family's names, once per family.

Two consumers read a family.  :func:`evaluate` measures each constraint,
and the positivity of each member, on a ``(positions, D, D)`` members array
and reports the violations (the verifiers);
:func:`vectorize` turns it into a real linear system over coefficients of
fixed Hermitian unit members (the extremality certificate), and
:func:`project` gives that system times the kernel basis of its
no-reduction block, at the support's rows, without forming either.

That system is reduced.  A row of a zero-target constraint is one of the
constraint's coefficients times one real coordinate of each unit, so the
system's row space depends only on the row space of the coefficient block
of each reduction.  That row space is read off a basis of the coefficient
space that factorizes party by party (the Collins–Gisin parametrization
of the no-signaling space): each party has an orthogonal integer
``m k``-square factor over ``(x, a)``, whose rows are the ones vector,
``I_m (x) H_k`` (zero outcome sum at every setting) and ``H_m (x) 1_k``
(constant in the outcome, zero sum over the settings), ``H_j`` Helmert's
basis without its normalization.  Their Kronecker product, permuted to
``positions()`` order, is an orthogonal integer basis, never formed.  Per
reduction, the certificate keeps the basis rows that the family's own
zero-target coefficient rows do not annihilate: chunks of those rows,
dense over the positions, are contracted with one party factor at a time,
an exact test on small integers, not a decomposition (:func:`_touched`).
Because the basis is orthogonal, the kept rows contain the block's row
space, and they equal it exactly when that row space is spanned by basis
rows, as it is for every family here.
:attr:`Family.certificate_rows` holds the kept rows, normalized, and
:attr:`Family.certificate_kernel` the rest of the basis for the block
with no reduction, as columns over the positions in ``positions()``
order, the members' order, each built from the party factors' rows at
its places (:func:`_basis_rows`).  Each basis row is written once per
Hermitian coordinate of the reduced units: ``D**2`` coordinates, the real
diagonal and the real and imaginary strict upper triangle, or the real
trace.
Constraints with a target (trace one, output trace ``1/d_in``) keep their
own rows.  The system has ``rank(C_block) * coordinates`` rows plus the
targeted rows, with the same solutions as the family written out
constraint by constraint.

Each family is evaluated through a compiled form, built once per family
(so once per scenario through :func:`family`) and cached on it:

- **Segments** for :func:`magnitudes`: per reduction, the terms of its
  constraints in constraint order, where each constraint's terms begin,
  and the targets stacked.  The members are reduced once per reduction,
  one gather takes every term, ``np.add.reduceat`` sums each
  constraint's segment, and the stacked targets are subtracted.
- **Contractions** for :func:`project`: a zero-target block's rows and
  the kernel's are rows of one orthonormal Kronecker basis, so the block
  times a diagonal times the kernel is a contraction of the diagonal with
  one small matrix per party, then a gather of the (row, kernel row)
  entries.  At (3,3,3,2) that is about 35 times fewer multiplications
  than the dense product.  The few targeted rows, times the diagonal, are
  contracted with the orthonormal party factors one party at a time, and
  the kernel's places are kept.  It reads the places of the rows and of
  the kernel, so the dense rows of a zero-target block are built only when
  :attr:`Family.certificate_rows` is read.

:func:`project` gives ``A K`` over all the kernel's columns whatever the
support, with a diagonal that is zero off it.  The kernel basis itself,
:attr:`Family.certificate_kernel` (2.0 MB at (3,3,3,2), 13.8 MB at
(3,3,4,2)), is formed only when a verdict needs its values: its rows off a
partial support, to find the combinations of its columns that vanish
there, or its rows at the support, to map a non-empty kernel back to
coefficients.  A full support with nullity zero, every entangled verdict
of the bench, never forms it.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Callable

import numpy as np

from .core import ScenarioError, output_trace, psd_deviation


class ConstraintMode(enum.Enum):
    FULL_NS = "full"
    NS_CHANNEL = "ns-channel"
    ASYM_NS = "asym"


class Reduction(enum.Enum):
    NONE = "none"
    OUTPUT_TRACE = "output trace"  # partial trace over the output factor
    TRACE = "trace"  # real part of the full trace


@dataclass(frozen=True)
class Constraints:
    """Constraints of one form, one per row of ``positions``: constraint
    ``i`` asks ``reduction(sum of signs[j] * member[positions[i, j]]) =
    target``.

    ``positions`` is a ``(count, width)`` integer array, numbered by
    :meth:`Scenario.indices`; ``target`` is ``None`` for zero, a matrix,
    or ``1.0`` for a trace.  ``names()`` formats the constraints' names, in
    row order.
    """

    positions: np.ndarray
    signs: np.ndarray  # (width,)
    names: Callable
    reduction: Reduction = Reduction.NONE
    target: object = None


def _helmert(j: int) -> np.ndarray:
    """Orthogonal integer ``(j, j - 1)`` columns orthogonal to the ones
    vector of ``R^j`` (Helmert's basis, not normalized): column ``r`` is
    ``1`` on the first ``r`` entries and ``-r`` on the next."""
    i, r = np.arange(j)[:, None], np.arange(1, j)[None, :]
    return (i < r) - r * (i == r)


def _party_factor(m: int, k: int) -> np.ndarray:
    """One party's orthogonal integer factor, as rows over ``(x, a)``
    x-major: the ones vector, ``I_m (x) H_k`` and ``H_m (x) 1_k``."""
    return np.concatenate([np.ones((1, m * k)),
                           np.kron(np.eye(m), _helmert(k).T),
                           np.kron(_helmert(m).T, np.ones((1, k)))])


def _party_major(scen) -> np.ndarray:
    """The place of each position, in ``scen.positions()`` order, among the
    columns of a Kronecker product of the party factors, which run
    ``(x_1, a_1, x_2, a_2, ...)``."""
    n = scen.n_parties
    sizes = [size for pair in zip(scen.settings, scen.outcomes) for size in pair]
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.arange(np.prod(sizes)).reshape(sizes).transpose(order).ravel()


def _basis_rows(scen, places) -> np.ndarray:
    """The rows ``places`` of the Kronecker product of the party factors,
    normalized, as the columns of a read-only ``(positions, len(places))``
    array whose rows run in ``scen.positions()`` order, built from each
    party's factor rows.

    A row's squared norm is the product of its factor rows' squared norms,
    an exact integer, so the rows are those of the formed product divided
    by their norms, to the last bit."""
    n, count = scen.n_parties, len(places)
    factors = [_party_factor(m, k) for m, k in zip(scen.settings, scen.outcomes)]
    digits = np.unravel_index(places, [len(f) for f in factors])
    rows, squares = np.ones((1,) * 2 * n + (count,)), np.ones(count)
    for i, (f, r, m, k) in enumerate(zip(factors, digits, scen.settings, scen.outcomes)):
        shape = [1] * 2 * n + [count]
        shape[i], shape[n + i] = m, k
        # axes (x_1..x_n, a_1..a_n, row), C-contiguous
        rows = rows * np.ascontiguousarray(
            f[r].reshape(count, m, k).transpose(1, 2, 0)).reshape(shape)
        squares *= (f[r] ** 2).sum(axis=1)
    rows = rows.reshape(-1, count)
    rows /= np.sqrt(squares)
    rows.flags.writeable = False  # shared through the family cache
    return rows


# Entries of one chunk of coefficient rows in :func:`_touched`: 128 KiB,
# which stays in cache while it is contracted; at (4,3,2,2), 512 KiB chunks
# took twice as long.
_CHUNK = 1 << 14


def _touched(scen, parts) -> np.ndarray:
    """Which rows of the Kronecker product of the party factors the
    constraints of ``parts`` do not annihilate, as a mask in Kronecker
    order.

    Chunks of the coefficient rows, dense over the party-major positions
    with the chunk axis last, are contracted with each party's integer
    factor in turn (:func:`_contract`), so neither the basis nor the whole
    coefficient matrix is formed.  Both sides are small integers, so the
    test is exact."""
    place = _party_major(scen)
    factors = [np.ascontiguousarray(_party_factor(m, k).T)
               for m, k in zip(scen.settings, scen.outcomes)]
    size, hit = len(place), np.zeros(len(place), dtype=bool)
    chunk = max(1, _CHUNK // size)
    for part in parts:
        for start in range(0, len(part.positions), chunk):
            positions = part.positions[start:start + chunk]
            index = place[positions] * len(positions) + np.arange(len(positions))[:, None]
            w = np.bincount(index.ravel(), np.broadcast_to(part.signs, positions.shape).ravel(),
                            size * len(positions))
            hit |= _contract(w, factors).reshape(len(positions), size).any(axis=0)
    return hit


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _contraction(factors, hit, kept) -> tuple:
    """``(matrices, rows, cols)`` that give ``Φ[hit] diag(w) Φ[kept]ᵀ`` from
    a vector ``w`` over the party-major positions, ``Φ`` the Kronecker
    product of the orthonormal party ``factors``.

    Entry ``(r, s)`` is ``sum_c prod_i P_i[r_i, c_i] P_i[s_i, c_i] w[c]``, so
    :func:`_contract` contracts ``w`` one party at a time with
    ``matrices[i]``, the ``(c_i, R_i S_i)`` products ``P_i[r] * P_i[s]``
    over the rows ``R_i`` and ``S_i`` of party ``i``'s factor that occur in
    the rows ``hit`` and ``kept`` of ``Φ``.  That leaves a tensor over
    ``(r_1, s_1, ..., r_n, s_n)``, in which entry ``(hit[i], kept[j])``
    sits at ``rows[i] + cols[j]``.
    """
    shape = [len(p) for p in factors]
    matrices, rows, cols, stride = [], 0, 0, 1
    for p, r, s in reversed(list(zip(factors, np.unravel_index(hit, shape),
                                     np.unravel_index(kept, shape)))):
        r, r_at = np.unique(r, return_inverse=True)
        s, s_at = np.unique(s, return_inverse=True)
        matrices.insert(0, np.ascontiguousarray(
            (p[r][:, None] * p[s][None]).reshape(-1, p.shape[1]).T))
        rows = rows + r_at * (len(s) * stride)
        cols = cols + s_at * stride
        stride *= len(r) * len(s)
    return tuple(matrices), rows, cols


def _contract(w: np.ndarray, matrices) -> np.ndarray:
    """Contract the leading party axis of ``w`` with each matrix in turn;
    each result axis goes last, so the parties keep their order."""
    for f in matrices:
        w = w.reshape(len(f), -1).T @ f
    return w.ravel()


def _gather(entries: np.ndarray, rows, cols, out: np.ndarray) -> np.ndarray:
    """``out[i, j] = entries[rows[i] + cols[j]]``, a chunk of rows at a
    time, so that no chunk's index holds more than :data:`_CHUNK`
    entries."""
    step = max(1, _CHUNK // max(1, len(cols)))
    for first in range(0, len(rows), step):  # in range: "clip" skips a buffered bounds check
        np.take(entries, rows[first:first + step, None] + cols,
                out=out[first:first + step], mode="clip")
    return out


@functools.lru_cache(maxsize=16)
def no_signaling_factors(scen) -> tuple:
    """One orthonormal factor per party, as rows over ``(x, a)`` x-major:
    the normalized rows of :func:`_party_factor` with no ``H_m (x) 1_k``
    part, ``m (k - 1) + 1`` of them.  Their Kronecker product spans the
    no-signaling vectors over all positions (Collins–Gisin), the span of
    :attr:`Family.certificate_kernel` for :func:`full_ns`.  Cached, and
    read-only."""
    factors = tuple(_normalized(_party_factor(m, k)[:m * (k - 1) + 1])
                    for m, k in zip(scen.settings, scen.outcomes))
    for q in factors:
        q.flags.writeable = False
    return factors


@dataclass(frozen=True)
class Family:
    """The constraints of one family on one scenario, in report order: the
    rows of ``parts``, a tuple of :class:`Constraints`, one after another.

    The certificate is derived from the constraints alone.  It is exact
    when, per reduction, the row space of the zero-target coefficient
    block is spanned by rows of the party-factor basis, as it is for every
    family of :func:`family`; otherwise the kept rows span more than the
    block, and the certificate would ask for more than the constraints do.
    """

    scenario: object
    parts: tuple

    def __len__(self) -> int:
        return sum(len(part.positions) for part in self.parts)

    @functools.cached_property
    def names(self) -> tuple:
        """Every constraint's name, in order, formatted on first read."""
        return tuple(name for part in self.parts for name in part.names())

    @functools.cached_property
    def _grouped(self) -> dict:
        """Per reduction, in first-use order: ``[(first, part), ...]``, each
        nonempty part with that reduction and the number of its first
        constraint."""
        groups, first = {}, 0
        for part in self.parts:
            if len(part.positions):
                groups.setdefault(part.reduction, []).append((first, part))
            first += len(part.positions)
        return groups

    @functools.cached_property
    def terms(self):
        """Every term as arrays ``(constraint, position, sign)``, positions
        numbered by :meth:`Scenario.indices`: grouped by reduction in
        first-use order, in constraint order within a group, so that each
        reduction's terms are one slice (:attr:`_segments`)."""
        parts = [(first, part) for group in self._grouped.values() for first, part in group]
        arrays = (np.concatenate([np.repeat(first + np.arange(len(part.positions)),
                                            part.positions.shape[1]) for first, part in parts]),
                  np.concatenate([part.positions.ravel() for _, part in parts]),
                  np.concatenate([np.tile(part.signs, len(part.positions)) for _, part in parts]))
        for arr in arrays:
            arr.flags.writeable = False  # shared through the family cache
        return arrays

    @functools.cached_property
    def _certificate(self):
        """``(blocks, kept)``: one ``(reduction, hit, coef, targets)`` per
        block of :attr:`certificate_rows`, and the places in the
        party-factor basis of :attr:`certificate_kernel`'s columns.  A
        zero-target block has the places ``hit`` of its rows and ``coef``
        ``None``; a targeted block has ``hit`` ``None`` and its own
        coefficient rows ``coef``."""
        scen = self.scenario
        size = prod(scen.settings) * prod(scen.outcomes)
        blocks, kept = [], np.arange(size)
        for reduction, group in self._grouped.items():
            zero = [part for _, part in group if part.target is None]
            targeted = [part for _, part in group if part.target is not None]
            if zero:
                hit = _touched(scen, zero)
                blocks.append((reduction, np.flatnonzero(hit), None, None))
                if reduction is Reduction.NONE:
                    kept = np.flatnonzero(~hit)
            if targeted:
                coef, first = np.zeros((sum(len(part.positions) for part in targeted), size)), 0
                for part in targeted:
                    rows = first + np.arange(len(part.positions))[:, None]
                    np.add.at(coef, (rows, part.positions), part.signs)
                    first += len(part.positions)
                coef.flags.writeable = False  # shared through the family cache
                blocks.append((reduction, None, coef, tuple(
                    part.target for part in targeted for _ in part.positions)))
        return tuple(blocks), kept

    @functools.cached_property
    def certificate_rows(self):
        """The coefficient rows of the certificate system, as blocks
        ``(reduction, rows, targets)`` over all positions.

        Per reduction, the zero-target constraints give the normalized rows
        of the party-factor basis that their coefficient rows do not
        annihilate, with ``targets`` ``None``; the constraints with a target
        give their own coefficient rows and their targets.  Built on first
        read: :func:`project` does not read it.
        """
        scen = self.scenario
        return tuple((reduction, _basis_rows(scen, hit).T if coef is None else coef, targets)
                     for reduction, hit, coef, targets in self._certificate[0])

    @functools.cached_property
    def certificate_kernel(self):
        """Orthonormal basis of the kernel of the zero-target coefficient
        block with no reduction, as the columns of a C-contiguous
        ``(positions, r)`` array whose rows run in ``positions()`` order,
        the order of the members: the normalized rows of the party-factor
        basis that this block annihilates (all of them when the family has
        no such block).  The rows at a system's columns are its rows at
        :attr:`.LinearSystem.at`.

        Formed on first read, which :func:`project` never makes: a verdict
        reads its rows off a partial support, to find the combinations of
        its columns that vanish there, or to map a non-empty kernel back to
        coefficients, and tests read it as an oracle."""
        return _basis_rows(self.scenario, self._certificate[1])

    @functools.cached_property
    def _contractions(self):
        """``(party_major, factors, per_block)``: :func:`_party_major`, the
        orthonormal party factors transposed for :func:`_contract`, and for
        each block of :attr:`certificate_rows` the :func:`_contraction` of
        its rows against :attr:`certificate_kernel`'s columns (``None`` for a
        targeted block)."""
        blocks, kept = self._certificate
        scen = self.scenario
        factors = [_normalized(_party_factor(m, k))
                   for m, k in zip(scen.settings, scen.outcomes)]
        return _party_major(scen), tuple(p.T for p in factors), tuple(
            None if hit is None else _contraction(factors, hit, kept)
            for _, hit, _, _ in blocks)

    @functools.cached_property
    def _segments(self):
        """Per reduction, in first-use order: ``(reduction, chosen, span,
        starts, targets)``.  ``chosen`` are the constraints with that
        reduction, ``span`` the slice of :attr:`terms` that holds their
        terms, ``starts`` where each constraint's terms begin in it (every
        constraint has terms), and ``targets`` the targets stacked, zero for
        none (``None`` when no constraint has one)."""
        segments, end = [], 0
        for reduction, group in self._grouped.items():
            chosen = np.concatenate([first + np.arange(len(part.positions))
                                     for first, part in group])
            counts = np.concatenate([np.full(len(part.positions), part.positions.shape[1])
                                     for _, part in group])
            start, end = end, end + int(counts.sum())
            targets = None
            if any(part.target is not None for _, part in group):
                shape = np.shape(next(part.target for _, part in group
                                      if part.target is not None))
                targets = np.concatenate([np.broadcast_to(
                    np.zeros(shape) if part.target is None else part.target,
                    (len(part.positions),) + shape) for _, part in group])
            segments.append((reduction, chosen, slice(start, end),
                             np.cumsum(counts) - counts, targets))
        return tuple(segments)


@dataclass(frozen=True)
class NsViolation:
    constraint: str
    magnitude: float


@dataclass(frozen=True)
class NsReport:
    violations: tuple
    max_violation: float
    deviations: np.ndarray = field(repr=False, compare=False)  # per constraint

    @property
    def ok(self) -> bool:
        return not self.violations


def _ranges(sizes, parties):
    return itertools.product(*(range(sizes[i]) for i in parties))


def _offsets(sizes, strides) -> np.ndarray:
    """``sum_i v_i * strides[i]`` for every ``v`` of
    ``itertools.product(*map(range, sizes))``, in that order."""
    out = np.zeros(1, dtype=np.int64)
    for size, stride in zip(sizes, strides):
        out = (out[:, None] + stride * np.arange(size)).ravel()
    return out


def _strides(scen) -> tuple:
    """What one more setting, and one more outcome, of each party adds to
    a position's place in :meth:`Scenario.indices` order."""
    sizes = scen.settings + scen.outcomes
    strides = [prod(sizes[j + 1:]) for j in range(len(sizes))]
    return strides[:scen.n_parties], strides[scen.n_parties:]


def _versus(names, fixed, settings, summed, reduction=Reduction.NONE) -> Constraints:
    """One constraint per offset in ``fixed`` and, within it, per offset
    ``settings[j]``, ``j >= 1``: the terms at ``fixed + settings[0] +
    summed``, less those at ``fixed + settings[j] + summed``."""
    pairs = np.stack(np.broadcast_arrays(settings[0], settings[1:]), axis=1)
    positions = fixed[:, None, None, None] + pairs[:, :, None] + summed
    return Constraints(positions.reshape(-1, 2 * len(summed)),
                       np.repeat([1.0, -1.0], len(summed)), names, reduction)


def _marginal_names(scen, inside, outside):
    outs = list(_ranges(scen.settings, outside))
    for a_in in _ranges(scen.outcomes, inside):
        for x_in in _ranges(scen.settings, inside):
            for x_out in outs[1:]:
                yield (f"marginal I={inside} a={a_in} x={x_in}: "
                       f"settings {outs[0]} vs {x_out}")


def _total_names(scen):
    x0, *rest = scen.setting_vectors()
    for x in rest:
        yield f"total at x={x0} vs x={x}"


def full_ns(scen) -> Family:
    """The full subset-marginal no-signaling family."""
    n, settings, outcomes = scen.n_parties, scen.settings, scen.outcomes
    x_stride, a_stride = _strides(scen)

    def offsets(parties):
        return (_offsets([outcomes[i] for i in parties], [a_stride[i] for i in parties]),
                _offsets([settings[i] for i in parties], [x_stride[i] for i in parties]))

    parts = []
    for size in range(1, n):
        for inside in itertools.combinations(range(n), size):
            outside = tuple(i for i in range(n) if i not in inside)
            (a_in, x_in), (a_out, x_out) = offsets(inside), offsets(outside)
            parts.append(_versus(
                functools.partial(_marginal_names, scen, inside, outside),
                (a_in[:, None] + x_in).ravel(), x_out, a_out))
    a_all, x_all = offsets(range(n))
    parts.append(Constraints(
        x_all[:, None] + a_all, np.ones(len(a_all)),
        lambda: (f"total trace at x={x}" for x in scen.setting_vectors()),
        Reduction.TRACE, 1.0))
    parts.append(_versus(functools.partial(_total_names, scen),
                         np.zeros(1, dtype=np.int64), x_all, a_all))
    return Family(scen, tuple(parts))


def output_trace_condition(scen) -> Constraints:
    """The total at the first settings output-traces to ``1/d_in``."""
    if len(scen.trusted_dims) != 2:
        raise ScenarioError("a channel family needs trusted dims (d_out, d_in)")
    d_in, outcomes = scen.trusted_dims[1], prod(scen.outcomes)
    return Constraints(np.arange(outcomes)[None], np.ones(outcomes),
                       lambda: ("output trace of total vs maximally mixed input",),
                       Reduction.OUTPUT_TRACE, np.eye(d_in) / d_in)


def asym_ns(scen) -> Family:
    """The relaxed A|BC family of two-party channel steering."""
    if scen.n_parties != 2:
        raise ScenarioError("the relaxed A|BC family is defined for exactly two parties")
    (m1, m2), (k1, k2) = scen.settings, scen.outcomes
    (sx, sy), (sa, sb) = _strides(scen)
    xy = list(itertools.product(range(m1), range(m2)))
    return Family(scen, (
        _versus(lambda: (f"sum over a at b={b} y={y}: x=0 vs x={x}"
                         for b in range(k2) for y in range(m2) for x in range(1, m1)),
                _offsets((k2, m2), (sb, sy)), sx * np.arange(m1), sa * np.arange(k1)),
        _versus(lambda: (f"traced sum over b at a={a} x={x}: y=0 vs y={y}"
                         for a in range(k1) for x in range(m1) for y in range(1, m2)),
                _offsets((k1, m1), (sa, sx)), sy * np.arange(m2), sb * np.arange(k2),
                Reduction.OUTPUT_TRACE),
        _versus(lambda: (f"total at (0,0) vs {v}" for v in xy[1:]),
                np.zeros(1, dtype=np.int64), _offsets((m1, m2), (sx, sy)),
                _offsets((k1, k2), (sa, sb))),
        output_trace_condition(scen),
    ))


@functools.lru_cache(maxsize=16)
def family(scen, mode: ConstraintMode) -> Family:
    """The mode's family on ``scen``.  Cached, so the verifier and the
    certificate builder of one scenario read the same object."""
    if mode is ConstraintMode.ASYM_NS:
        return asym_ns(scen)
    channel = (output_trace_condition(scen),) if mode is ConstraintMode.NS_CHANNEL else ()
    return Family(scen, full_ns(scen).parts + channel)


def _reduce(stack: np.ndarray, reduction: Reduction, dims) -> np.ndarray:
    """Apply ``reduction`` to every matrix of a ``(count, D, D)`` stack."""
    if reduction is Reduction.OUTPUT_TRACE:
        return output_trace(stack, *dims)
    if reduction is Reduction.TRACE:
        return np.trace(stack, axis1=1, axis2=2).real
    return stack


def magnitudes(fam: Family, members: np.ndarray) -> np.ndarray:
    """Deviation of each constraint on ``members``, a ``(positions, D, D)``
    array in ``scenario.positions()`` order.

    Max-abs complex entry of the reduced sum minus the target, and
    ``|Re tr - 1|`` for a trace constraint.  Per reduction, the members
    are reduced once, one gather takes every term of the family's
    constraints with that reduction, in constraint order, and
    ``np.add.reduceat`` sums each constraint's segment of them.
    """
    stack = np.asarray(members, dtype=complex)
    _, positions, signs = fam.terms
    out = np.empty(len(fam))
    for reduction, chosen, span, starts, targets in fam._segments:
        reduced = _reduce(stack, reduction, fam.scenario.trusted_dims)
        terms = reduced[positions[span]]
        terms *= signs[span].reshape((-1,) + (1,) * (reduced.ndim - 1))
        sums = np.add.reduceat(terms, starts, axis=0)
        if targets is not None:
            sums = sums - targets
        out[chosen] = np.abs(sums).reshape(len(chosen), -1).max(axis=1)
    return out


def evaluate(fam: Family, members: np.ndarray, tol: float) -> NsReport:
    """Violations above ``tol``: each member that is not PSD (by
    :func:`.core.psd_deviation`), then the family's constraints in order."""
    psd = psd_deviation(members)
    bad = np.flatnonzero(psd > tol)
    positions = list(fam.scenario.positions()) if bad.size else []
    violations = [NsViolation(f"member {positions[i][0]}|{positions[i][1]} PSD",
                              float(psd[i])) for i in bad]
    deviation = magnitudes(fam, members)
    violations += [NsViolation(fam.names[i], float(deviation[i]))
                   for i in np.flatnonzero(deviation > tol)]
    return NsReport(tuple(violations),
                    max((v.magnitude for v in violations), default=0.0), deviation)


def _coordinates(reduced: np.ndarray, traceless: bool = False) -> np.ndarray:
    """Real coordinates of each Hermitian reduced member, one column per
    member: the real diagonal, then the real and the imaginary strict upper
    triangle (``D**2`` in all), or the real trace.  ``traceless`` rotates
    the diagonal onto Helmert's basis of the traceless diagonals, which
    drops the one coordinate along the trace (``D**2 - 1`` in all)."""
    if reduced.ndim == 1:
        return reduced[None, :]
    d = reduced.shape[-1]
    diagonal = np.diagonal(reduced, axis1=1, axis2=2).real
    if traceless:
        diagonal = diagonal @ _normalized(_helmert(d).T).T
    rows, cols = np.triu_indices(d, 1)
    strict = reduced[:, rows, cols]
    return np.concatenate([diagonal, strict.real, strict.imag], axis=1).T


def vectorize(fam: Family, at, units: np.ndarray):
    """The reduced real system ``A c = b`` for ``sum_j c_j units[j]`` in the
    family, for Hermitian ``units``.

    ``at`` holds the place of each unit's position in
    ``scenario.positions()``; terms at other positions are zero.  Returns
    ``(A, b)``: each block of :attr:`Family.certificate_rows`, restricted to
    those positions, gives one real row per coefficient row and coordinate
    of the reduced units; rows that are zero with a zero target are left
    out.
    """
    matrices, targets = [], []
    for reduction, coef, block_targets in fam.certificate_rows:
        vec = _coordinates(_reduce(units, reduction, fam.scenario.trusted_dims))
        matrices.append((coef[:, None, at] * vec[None]).reshape(-1, len(at)))
        if block_targets is None:
            targets.append(np.zeros(len(coef) * len(vec)))
        else:
            targets += [_coordinates(np.asarray(t)[None])[:, 0] for t in block_targets]
    matrix, rhs = np.concatenate(matrices), np.concatenate(targets)
    kept = matrix.any(axis=1) | (rhs != 0)
    return matrix[kept], rhs[kept]


def project(fam: Family, at, units: np.ndarray) -> np.ndarray:
    """``A K`` for the ``A`` of :func:`vectorize` and ``K`` the rows of
    :attr:`Family.certificate_kernel` at the positions ``at``; neither is
    formed, and only the kernel's width is read, never its values.

    Each block gives ``(coef[:, at] * v) @ K`` per coordinate row ``v`` of
    the reduced units.  In the zero-target block with no reduction, ``B``,
    the diagonal coordinates are rotated so that one of them is the trace,
    and that one is dropped.  Every unit has trace one, so the dropped rows
    are ``B[:, at] K / sqrt(D)``, and they vanish on every combination of
    the kernel's columns that is zero off ``at``: on all of them on a full
    support, and on the ``N`` by which
    :func:`.certificates.decomposition_analysis` restricts the kernel to a
    partial one.  Neither the rotation nor the drop changes a singular
    value of ``A K N``.

    The kernel's columns are rows of one orthonormal Kronecker basis ``Φ``,
    so with ``w`` equal to ``v`` on ``at`` and zero elsewhere, a block's
    rows are ``coef diag(w) Φ[kept]ᵀ``.  A zero-target block's rows are
    rows of ``Φ`` too: ``w`` is contracted with one small matrix per party,
    one coordinate at a time, and the (row, kernel column) entries are
    gathered (:func:`_contraction`, :func:`_gather`).  A targeted block's
    rows (trace and output trace), times ``w`` on the party-major
    positions, are contracted with the party factors one party at a time,
    and the kernel's places are taken (:func:`_contract`).
    """
    party_major, factors, contractions = fam._contractions
    kept = fam._certificate[1]
    place, w = party_major[at], np.zeros(len(party_major))
    blocks = [(len(hit) if coef is None else len(coef), coef, contraction,
               _coordinates(_reduce(units, reduction, fam.scenario.trusted_dims),
                            reduction is Reduction.NONE and coef is None))
              for (reduction, hit, coef, _), contraction
              in zip(fam._certificate[0], contractions)]
    out, end = np.empty((sum(count * len(vec) for count, _, _, vec in blocks), len(kept))), 0
    for count, coef, contraction, vec in blocks:
        for v in vec:
            start, end = end, end + count
            if contraction is None:
                # the rows on the party-major positions, the row axis last
                terms = np.zeros((len(party_major), count))
                terms[place] = (coef[:, at] * v).T
                out[start:end] = _contract(terms, factors).reshape(count, -1)[:, kept]
                continue
            matrices, rows, cols = contraction
            w[place] = v
            _gather(_contract(w, matrices), rows, cols, out[start:end])
    return out
