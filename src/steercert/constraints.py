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

Two consumers read a family.  :func:`evaluate` measures each constraint on
a set of members and reports the violations (the verifiers);
:func:`vectorize` turns it into the real linear system over coefficients of
fixed unit members (the extremality certificate).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class Family:
    """The constraints of one family on one scenario, in report order."""

    scenario: object
    constraints: tuple

    @functools.cached_property
    def terms(self):
        """Every term as arrays ``(constraint, position, sign)``, positions
        numbered in ``scenario.positions()`` order."""
        index = {pos: i for i, pos in enumerate(self.scenario.positions())}
        flat = [(i, index[pos], sign) for i, c in enumerate(self.constraints)
                for pos, sign in c.terms]
        arrays = tuple(np.array(column) for column in zip(*flat))
        for arr in arrays:
            arr.flags.writeable = False  # shared through the family cache
        return arrays


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
        raise ValueError("the relaxed A|BC family is defined for exactly two parties")
    if len(scen.trusted_dims) != 2:
        raise ValueError("the relaxed A|BC family needs trusted dims (d_out, d_in)")
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
        d_out, d_in = dims
        return np.einsum("nkikj->nij", stack.reshape(-1, d_out, d_in, d_out, d_in))
    if reduction is Reduction.TRACE:
        return np.trace(stack, axis1=1, axis2=2).real
    return stack


def magnitudes(fam: Family, members) -> np.ndarray:
    """Deviation of each constraint on ``members`` (position -> matrix).

    Max-abs complex entry of the reduced sum minus the target, and
    ``|Re tr - 1|`` for a trace constraint.
    """
    scen = fam.scenario
    stack = np.stack([np.asarray(members[pos], dtype=complex)
                      for pos in scen.positions()])
    rows, cols, signs = fam.terms
    out = np.empty(len(fam.constraints))
    for reduction in {c.reduction for c in fam.constraints}:
        chosen = np.array([c.reduction is reduction for c in fam.constraints])
        reduced = _reduce(stack, reduction, scen.trusted_dims)
        sums = np.zeros((len(chosen),) + reduced.shape[1:], dtype=reduced.dtype)
        picked = chosen[rows]
        scale = signs[picked].reshape((-1,) + (1,) * (reduced.ndim - 1))
        np.add.at(sums, rows[picked], scale * reduced[cols[picked]])
        for i in np.flatnonzero(chosen):
            target = fam.constraints[i].target
            if target is not None:
                sums[i] -= target
        dev = np.abs(sums[chosen]).reshape(int(chosen.sum()), -1)
        out[chosen] = dev.max(axis=1)
    return out


def evaluate(fam: Family, members, tol: float) -> NsReport:
    """Violations above ``tol``, in family order."""
    violations = tuple(NsViolation(c.name, float(v))
                       for c, v in zip(fam.constraints, magnitudes(fam, members))
                       if v > tol)
    return NsReport(violations, max((v.magnitude for v in violations), default=0.0))


def _real_rows(reduced: np.ndarray) -> np.ndarray:
    """Real coordinates of each reduced member, one column per member:
    row-major real parts then imaginary parts, or the real trace."""
    if reduced.ndim == 1:
        return reduced[None, :]
    flat = reduced.reshape(reduced.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def vectorize(fam: Family, columns, units: np.ndarray):
    """The real system ``A c = b`` for ``sum_j c_j units[j]`` in the family.

    ``columns`` lists the position of each unit; terms at other positions
    are zero.  Returns ``(A, b)``: each constraint contributes one real row
    per real coordinate of its reduced sum, in family order.
    """
    scen = fam.scenario
    index = {pos: j for j, pos in enumerate(columns)}
    column_of = np.array([index.get(pos, -1) for pos in scen.positions()])
    rows, positions, signs = fam.terms
    cols = column_of[positions]
    kept = cols >= 0
    coef = np.zeros((len(fam.constraints), len(columns)))
    np.add.at(coef, (rows[kept], cols[kept]), signs[kept])
    vectors = {red: _real_rows(_reduce(units, red, scen.trusted_dims))
               for red in {c.reduction for c in fam.constraints}}
    runs = [(red, [i for i, _ in group]) for red, group in itertools.groupby(
        enumerate(fam.constraints), key=lambda ic: ic[1].reduction)]
    height = sum(vectors[red].shape[0] * len(idx) for red, idx in runs)
    matrix = np.empty((height, len(columns)))
    rhs = np.zeros(height)
    r = 0
    for red, idx in runs:
        vec = vectors[red]
        h = vec.shape[0]
        block = matrix[r:r + h * len(idx)].reshape(len(idx), h, len(columns))
        np.multiply(coef[idx[0]:idx[-1] + 1, None, :], vec[None, :, :], out=block)
        for k, i in enumerate(idx):
            target = fam.constraints[i].target
            if target is not None:
                rhs[r + k * h:r + (k + 1) * h] = _real_rows(
                    np.asarray(target)[None]).reshape(-1)
        r += h * len(idx)
    return matrix, rhs
