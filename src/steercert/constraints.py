"""The two constraint families, each defined once.

A family is a list of linear constraints over the positions ``(a, x)`` of
a scenario.  A constraint sums signed members, optionally reduces the sum
(partial trace over the output factor, or full trace), and asks the result
to equal a target: zero, a matrix, or ``1`` for a trace.

- **Full no-signaling** (:func:`full_ns`): for every proper nonempty subset
  of parties with fixed outcomes and settings, the member summed over the
  other parties' outcomes does not depend on their settings; the total is
  setting independent with unit trace.
- **Relaxed A|BC** (:func:`asym_ns`), two parties only: the sum over A's
  outcomes does not depend on A's setting; the output-traced sum over B's
  outcomes does not depend on B's setting; the total is setting independent
  and output-traces to the maximally mixed input.

Two consumers read a family.  :func:`evaluate` measures each constraint,
and the positivity of each member, on a ``(positions, D, D)`` members array
and reports the violations (the verifiers);
:func:`vectorize` turns it into a real linear system over coefficients of
fixed Hermitian unit members (the extremality certificate), and
:func:`project` gives that system times a basis of its kernel's
no-reduction part without forming it.

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
``positions()`` order, is an orthogonal integer basis.  Per reduction,
the certificate keeps the basis rows that the family's own zero-target
coefficient rows do not annihilate: an exact test on small integers, not
a decomposition.  Because the basis is orthogonal, the kept rows contain
the block's row space, and they equal it exactly when that row space is
spanned by basis rows, as it is for both families here.
:attr:`Family.certificate_rows` holds the kept rows, normalized, and
:attr:`Family.certificate_kernel` the rest of the basis for the block
with no reduction.  Each basis row is written once per Hermitian
coordinate of the reduced units: ``D**2`` coordinates, the real diagonal
and the real and imaginary strict upper triangle, or the real trace.
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
  than the dense product; only the few targeted rows stay dense.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import ScenarioError, output_trace, psd_deviation


class ConstraintMode(enum.Enum):
    FULL_NS = "full"
    ASYM_NS = "asym"


class Reduction(enum.Enum):
    NONE = "none"
    OUTPUT_TRACE = "output trace"  # partial trace over the output factor
    TRACE = "trace"  # real part of the full trace


@dataclass(frozen=True)
class Constraint:
    """``reduction(sum of sign * member[pos] over terms) = target``.

    ``target`` is ``None`` for zero, a matrix, or ``1.0`` for a trace.
    """

    name: str
    terms: tuple  # ((position, sign), ...)
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


def _factor_basis(scen) -> np.ndarray:
    """The Kronecker product of the party factors, as rows over all
    positions in ``scen.positions()`` order."""
    basis = np.ones((1, 1))
    for m, k in zip(scen.settings, scen.outcomes):
        basis = np.kron(basis, _party_factor(m, k))
    return basis[:, _party_major(scen)]


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
    """The constraints of one family on one scenario, in report order.

    The certificate is derived from the constraints alone.  It is exact
    when, per reduction, the row space of the zero-target coefficient
    block is spanned by rows of the party-factor basis, as it is for
    :func:`full_ns` and :func:`asym_ns`; otherwise the kept rows span
    more than the block, and the certificate would ask for more than the
    constraints do.
    """

    scenario: object
    constraints: tuple

    @functools.cached_property
    def terms(self):
        """Every term as arrays ``(constraint, position, sign)``, positions
        numbered by :meth:`Scenario.indices`: grouped by reduction in
        first-use order, in constraint order within a group, so that each
        reduction's terms are one slice (:attr:`_segments`)."""
        flat = [(i, pos, sign)
                for reduction in dict.fromkeys(c.reduction for c in self.constraints)
                for i, c in enumerate(self.constraints) if c.reduction is reduction
                for pos, sign in c.terms]
        rows, positions, signs = zip(*flat)
        arrays = (np.array(rows), self.scenario.indices(positions), np.array(signs))
        for arr in arrays:
            arr.flags.writeable = False  # shared through the family cache
        return arrays

    @functools.cached_property
    def _certificate(self):
        """``(blocks, kernel, hits, kept)``: :attr:`certificate_rows`,
        :attr:`certificate_kernel`, and the places in the party-factor
        basis of each block's rows (``None`` for a targeted block) and of
        the kernel's rows."""
        basis = _factor_basis(self.scenario)
        rows, positions, signs = self.terms
        coef = np.zeros((len(self.constraints), len(basis)))
        np.add.at(coef, (rows, positions), signs)
        blocks, hits, kept = [], [], np.ones(len(basis), dtype=bool)
        for reduction in dict.fromkeys(c.reduction for c in self.constraints):
            zero = [i for i, c in enumerate(self.constraints)
                    if c.reduction is reduction and c.target is None]
            targeted = [i for i, c in enumerate(self.constraints)
                        if c.reduction is reduction and c.target is not None]
            if zero:
                # small integers on both sides, so the test is exact
                hit = np.any(coef[zero] @ basis.T != 0, axis=0)
                blocks.append((reduction, _normalized(basis[hit]), None))
                hits.append(np.flatnonzero(hit))
                if reduction is Reduction.NONE:
                    kept = ~hit
            if targeted:
                blocks.append((reduction, coef[targeted],
                               tuple(self.constraints[i].target for i in targeted)))
                hits.append(None)
        kernel = _normalized(basis[kept])
        for arr in [arr for _, arr, _ in blocks] + [kernel]:
            arr.flags.writeable = False  # shared through the family cache
        return tuple(blocks), kernel, tuple(hits), np.flatnonzero(kept)

    @property
    def certificate_rows(self):
        """The coefficient rows of the certificate system, as blocks
        ``(reduction, rows, targets)`` over all positions.

        Per reduction, the zero-target constraints give the normalized rows
        of the party-factor basis that their coefficient rows do not
        annihilate, with ``targets`` ``None``; the constraints with a target
        give their own coefficient rows and their targets.
        """
        return self._certificate[0]

    @property
    def certificate_kernel(self):
        """Orthonormal basis, as rows over all positions, of the kernel of
        the zero-target coefficient block with no reduction: the normalized
        rows of the party-factor basis that this block annihilates (all of
        them when the family has no such block)."""
        return self._certificate[1]

    @functools.cached_property
    def _contractions(self):
        """``(party_major, per_block)``: :func:`_party_major`, and for each
        block of :attr:`certificate_rows` the :func:`_contraction` of its
        rows against :attr:`certificate_kernel` (``None`` for a targeted
        block)."""
        _, _, hits, kept = self._certificate
        scen = self.scenario
        factors = [_normalized(_party_factor(m, k))
                   for m, k in zip(scen.settings, scen.outcomes)]
        return _party_major(scen), tuple(
            None if hit is None else _contraction(factors, hit, kept) for hit in hits)

    @functools.cached_property
    def _segments(self):
        """Per reduction, in first-use order: ``(reduction, chosen, span,
        starts, targets)``.  ``chosen`` are the constraints with that
        reduction, ``span`` the slice of :attr:`terms` that holds their
        terms, ``starts`` where each constraint's terms begin in it (every
        constraint has terms), and ``targets`` the targets stacked, zero for
        none (``None`` when no constraint has one)."""
        rows = self.terms[0]
        reductions = [c.reduction for c in self.constraints]
        counts = np.bincount(rows, minlength=len(self.constraints))
        segments, end = [], 0
        for reduction in dict.fromkeys(reductions):
            chosen = np.flatnonzero([r is reduction for r in reductions])
            start, end = end, end + int(counts[chosen].sum())
            starts = np.cumsum(counts[chosen]) - counts[chosen]
            given = [self.constraints[i].target for i in chosen]
            targets = None
            if any(t is not None for t in given):
                shape = np.shape(next(t for t in given if t is not None))
                targets = np.array([np.zeros(shape) if t is None else t for t in given])
            segments.append((reduction, chosen, slice(start, end), starts, targets))
        return tuple(segments)


@dataclass(frozen=True)
class NsViolation:
    constraint: str
    magnitude: float


@dataclass(frozen=True)
class NsReport:
    violations: tuple
    max_violation: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _merge(n, inside, v_in, outside, v_out) -> tuple:
    v = [0] * n
    for i, vi in zip(inside, v_in):
        v[i] = vi
    for i, vi in zip(outside, v_out):
        v[i] = vi
    return tuple(v)


def _ranges(sizes, parties):
    return itertools.product(*(range(sizes[i]) for i in parties))


def _total(scen, x, sign) -> list:
    """Signed terms of the sum over all outcome vectors at settings ``x``."""
    return [((a, x), sign) for a in scen.outcome_vectors()]


def full_ns(scen) -> Family:
    """The full subset-marginal no-signaling family."""
    n = scen.n_parties
    constraints = []
    for size in range(1, n):
        for inside in itertools.combinations(range(n), size):
            outside = tuple(i for i in range(n) if i not in inside)
            outs = list(_ranges(scen.settings, outside))
            a_outs = list(_ranges(scen.outcomes, outside))
            for a_in in _ranges(scen.outcomes, inside):
                for x_in in _ranges(scen.settings, inside):
                    summed = []  # positions summed over, per outside settings
                    for x_out in outs:
                        x = _merge(n, inside, x_in, outside, x_out)
                        summed.append([(_merge(n, inside, a_in, outside, a_out), x)
                                       for a_out in a_outs])
                    base = [(pos, 1.0) for pos in summed[0]]
                    for x_out, other in zip(outs[1:], summed[1:]):
                        constraints.append(Constraint(
                            f"marginal I={inside} a={a_in} x={x_in}: "
                            f"settings {outs[0]} vs {x_out}",
                            tuple(base + [(pos, -1.0) for pos in other])))
    setting_list = list(scen.setting_vectors())
    for x in setting_list:
        constraints.append(Constraint(f"total trace at x={x}",
                                      tuple(_total(scen, x, 1.0)),
                                      Reduction.TRACE, 1.0))
    x0 = setting_list[0]
    for x in setting_list[1:]:
        constraints.append(Constraint(
            f"total at x={x0} vs x={x}",
            tuple(_total(scen, x0, 1.0) + _total(scen, x, -1.0))))
    return Family(scen, tuple(constraints))


def output_trace_condition(scen) -> Constraint:
    """The total at the first settings output-traces to ``1/d_in``."""
    d_in = scen.trusted_dims[1]
    x0 = next(iter(scen.setting_vectors()))
    return Constraint("output trace of total vs maximally mixed input",
                      tuple(_total(scen, x0, 1.0)), Reduction.OUTPUT_TRACE,
                      np.eye(d_in) / d_in)


def asym_ns(scen) -> Family:
    """The relaxed A|BC family of two-party channel steering."""
    if scen.n_parties != 2:
        raise ScenarioError("the relaxed A|BC family is defined for exactly two parties")
    if len(scen.trusted_dims) != 2:
        raise ScenarioError("the relaxed A|BC family needs trusted dims (d_out, d_in)")
    (m1, m2), (k1, k2) = scen.settings, scen.outcomes
    constraints = []
    for b in range(k2):
        for y in range(m2):
            for x in range(1, m1):
                constraints.append(Constraint(
                    f"sum over a at b={b} y={y}: x=0 vs x={x}",
                    tuple([(((a, b), (0, y)), 1.0) for a in range(k1)]
                          + [(((a, b), (x, y)), -1.0) for a in range(k1)])))
    for a in range(k1):
        for x in range(m1):
            for y in range(1, m2):
                constraints.append(Constraint(
                    f"traced sum over b at a={a} x={x}: y=0 vs y={y}",
                    tuple([(((a, b), (x, 0)), 1.0) for b in range(k2)]
                          + [(((a, b), (x, y)), -1.0) for b in range(k2)]),
                    Reduction.OUTPUT_TRACE))
    for xy in itertools.product(range(m1), range(m2)):
        if xy != (0, 0):
            constraints.append(Constraint(
                f"total at (0,0) vs {xy}",
                tuple(_total(scen, (0, 0), 1.0) + _total(scen, xy, -1.0))))
    constraints.append(output_trace_condition(scen))
    return Family(scen, tuple(constraints))


@functools.lru_cache(maxsize=16)
def family(scen, mode: ConstraintMode) -> Family:
    """The mode's family on ``scen``.  Cached, so the verifier and the
    certificate builder of one scenario read the same object."""
    return full_ns(scen) if mode is ConstraintMode.FULL_NS else asym_ns(scen)


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
    out = np.empty(len(fam.constraints))
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
    violations += [NsViolation(fam.constraints[i].name, float(deviation[i]))
                   for i in np.flatnonzero(deviation > tol)]
    return NsReport(tuple(violations),
                    max((v.magnitude for v in violations), default=0.0))


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


def project(fam: Family, at, units: np.ndarray, k: np.ndarray, n) -> np.ndarray:
    """``A K`` for the ``A`` of :func:`vectorize` and orthonormal columns
    ``k`` spanning the kernel of ``B_S``, the zero-target block with no
    reduction restricted to the positions ``at``; ``A`` is never formed.
    ``k`` is ``K_fullᵀ[at] n``, ``K_full`` :attr:`Family.certificate_kernel`
    and ``n`` ``None`` on a full support.

    Each block gives ``(coef[:, at] * v) @ k`` per coordinate row ``v`` of
    the reduced units.  In ``B_S``'s block the diagonal coordinates are
    rotated so that one of them is the trace, and that one is dropped:
    every unit has trace one, so its rows are ``B_S k / sqrt(D)``, which
    vanish.  Neither changes a singular value.

    A zero-target block's rows and ``K_full``'s are rows of one orthonormal
    Kronecker basis, so with ``w`` equal to ``v`` on ``at`` and zero
    elsewhere its rows are ``(rows diag(w) K_fullᵀ) n``: ``w`` is contracted
    with one small matrix per party, one coordinate at a time, and the
    (row, kernel row) entries are gathered (:func:`_contraction`).  Only the
    targeted rows (trace and output trace) are dense products.
    """
    party_major, contractions = fam._contractions
    place, w = party_major[at], np.zeros(len(party_major))
    blocks = [(coef, contraction,
               _coordinates(_reduce(units, reduction, fam.scenario.trusted_dims),
                            reduction is Reduction.NONE and targets is None))
              for (reduction, coef, targets), contraction
              in zip(fam.certificate_rows, contractions)]
    out, end = np.empty((sum(len(coef) * len(vec) for coef, _, vec in blocks),
                         k.shape[1])), 0
    for coef, contraction, vec in blocks:
        if contraction is not None:
            matrices, rows, cols = contraction
            index = rows[:, None] + cols
        for v in vec:
            start, end = end, end + len(coef)
            if contraction is None:
                out[start:end] = (coef[:, at] * v) @ k
                continue
            w[place] = v
            if n is None:  # in range: "clip" skips a buffered bounds check
                np.take(_contract(w, matrices), index, out=out[start:end], mode="clip")
            else:
                out[start:end] = _contract(w, matrices)[index] @ n
    return out
