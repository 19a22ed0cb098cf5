"""Extremality certification for pure-member assemblages.

The constraint families (full no-signaling, or the relaxed two-party
variant used for channel steering) become one real linear system over the
nonnegative coefficients sitting at the non-zero positions of a fixed
support pattern.  Rank-nullity of that system decides whether the
reference coefficients are the unique solution: nullity zero certifies an
extreme point, positive nullity produces an explicit pair of distinct
feasible decompositions averaging to the reference.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .core import (
    DEFAULT_TOL,
    Op,
    Tolerances,
    nullspace_and_spectrum,
    op_rank,
    partial_trace,
    proportional_rank_one,
    real_vectorize_matrix,
)
from .assemblages import Assemblage, PureAssemblage, Scenario


class ConstraintMode(enum.Enum):
    FULL_NS = "full"
    ASYM_NS = "asym"


@dataclass(frozen=True)
class LinearSystem:
    """Real system ``A c = b`` over coefficients at non-zero positions."""

    matrix: np.ndarray
    rhs: np.ndarray
    columns: tuple  # position (a, x) of each column
    reference: np.ndarray  # coefficient vector of the input assemblage

    def column_index(self, a, x) -> int:
        return self.columns.index((tuple(a), tuple(x)))

    def residual_of(self, c) -> float:
        return float(np.max(np.abs(self.matrix @ np.asarray(c) - self.rhs)))


class Verdict(enum.Enum):
    UNIQUE_EXTREME = "UNIQUE_EXTREME"
    NON_UNIQUE = "NON_UNIQUE"


@dataclass(frozen=True)
class ExtremalityCertificate:
    mode: ConstraintMode
    rank: int
    nullity: int
    pinned: tuple  # positions whose coefficient is fixed across solutions
    verdict: Verdict
    # (smallest singular value kept, largest dropped), each over s_max;
    # the rank decision is rank_rel_tol between the two.
    rank_margin: tuple
    witness_pair: tuple = None  # (c_plus, c_minus) when NON_UNIQUE
    system: LinearSystem = field(default=None, repr=False)

    def to_json(self) -> dict:
        doc = {
            "mode": self.mode.value,
            "rank": self.rank,
            "nullity": self.nullity,
            "pinned": [[list(a), list(x)] for a, x in self.pinned],
            "verdict": self.verdict.value,
            "rank_margin": list(self.rank_margin),
        }
        if self.witness_pair is not None:
            doc["witness_pair"] = [list(map(float, c)) for c in self.witness_pair]
            doc["columns"] = [[list(a), list(x)] for a, x in self.system.columns]
        return doc


def _unit_members(p: PureAssemblage):
    """Unit-trace rank-one matrices at the non-zero positions, sorted."""
    positions = sorted(p.members)
    units = {}
    for pos in positions:
        _, ket = p.members[pos]
        units[pos] = np.outer(ket.data, ket.data.conj())
    return positions, units


def build_constraint_system(p: PureAssemblage, mode: ConstraintMode) -> LinearSystem:
    """Vectorized real constraint rows of the chosen mode.

    Unknowns are the coefficients multiplying fixed unit-trace rank-one
    operators at the non-zero positions; the reference coefficients (the
    member traces) satisfy the system by construction.
    """
    scen = p.scenario
    if mode is ConstraintMode.ASYM_NS and scen.n_parties != 2:
        raise ValueError("the relaxed mode requires exactly two parties")
    positions, units = _unit_members(p)
    col_of = {pos: j for j, pos in enumerate(positions)}
    ncols = len(positions)
    d = scen.trusted_dim

    rows, rhs = [], []

    def operator_rows(terms, target=None, traced=False):
        """Append real rows for ``sum coef * unit_pos = target`` (or 0)."""
        if traced:
            side = scen.trusted_dims[1]
        else:
            side = d
        block = np.zeros((2 * side * side, ncols))
        for pos, coef in terms:
            if pos not in col_of:
                continue
            unit = units[pos]
            if traced:
                unit = partial_trace(Op(scen.trusted_dims, unit), keep=[1]).data
            block[:, col_of[pos]] += coef * real_vectorize_matrix(unit)
        target_vec = (real_vectorize_matrix(target) if target is not None
                      else np.zeros(2 * side * side))
        rows.append(block)
        rhs.append(target_vec)

    if mode is ConstraintMode.FULL_NS:
        n = scen.n_parties
        for size in range(1, n):
            for inside in itertools.combinations(range(n), size):
                outside = [i for i in range(n) if i not in inside]
                outs = list(itertools.product(
                    *(range(scen.settings[i]) for i in outside)))
                for a_in in itertools.product(
                        *(range(scen.outcomes[i]) for i in inside)):
                    for x_in in itertools.product(
                            *(range(scen.settings[i]) for i in inside)):
                        def sum_terms(x_out, sign):
                            terms = []
                            for a_out in itertools.product(
                                    *(range(scen.outcomes[i]) for i in outside)):
                                a = [0] * n
                                x = [0] * n
                                for i, v in zip(inside, a_in):
                                    a[i] = v
                                for i, v in zip(inside, x_in):
                                    x[i] = v
                                for i, v in zip(outside, a_out):
                                    a[i] = v
                                for i, v in zip(outside, x_out):
                                    x[i] = v
                                terms.append(((tuple(a), tuple(x)), sign))
                            return terms
                        for x_out in outs[1:]:
                            operator_rows(sum_terms(outs[0], 1.0)
                                          + sum_terms(x_out, -1.0))
        for x in scen.setting_vectors():
            row = np.zeros((1, ncols))
            for a in scen.outcome_vectors():
                if (a, x) in col_of:
                    row[0, col_of[(a, x)]] = 1.0
            rows.append(row)
            rhs.append(np.array([1.0]))
    else:
        (m1, m2), (k1, k2) = scen.settings, scen.outcomes
        for b in range(k2):
            for y in range(m2):
                for x in range(1, m1):
                    terms = [(((a, b), (0, y)), 1.0) for a in range(k1)]
                    terms += [(((a, b), (x, y)), -1.0) for a in range(k1)]
                    operator_rows(terms)
        for a in range(k1):
            for x in range(m1):
                for y in range(1, m2):
                    terms = [(((a, b), (x, 0)), 1.0) for b in range(k2)]
                    terms += [(((a, b), (x, y)), -1.0) for b in range(k2)]
                    operator_rows(terms, traced=True)
        all_pos = [(a, b) for a in range(k1) for b in range(k2)]
        for x, y in itertools.product(range(m1), range(m2)):
            if (x, y) == (0, 0):
                continue
            terms = [((ab, (0, 0)), 1.0) for ab in all_pos]
            terms += [((ab, (x, y)), -1.0) for ab in all_pos]
            operator_rows(terms)
        d_in = scen.trusted_dims[1]
        operator_rows([((ab, (0, 0)), 1.0) for ab in all_pos],
                      target=np.eye(d_in) / d_in, traced=True)

    matrix = np.vstack(rows)
    rhs_vec = np.concatenate(rhs)
    reference = np.array([p.members[pos][0] for pos in positions])
    return LinearSystem(matrix, rhs_vec, tuple(positions), reference)


def decomposition_analysis(p: PureAssemblage, mode: ConstraintMode,
                           tol: Tolerances = DEFAULT_TOL) -> ExtremalityCertificate:
    """Rank-nullity analysis of the support pattern's constraint system.

    Nullity zero means the reference coefficients are the only solution,
    certifying an extreme point of the mode's convex set.  Otherwise an
    explicit pair of distinct feasible coefficient vectors averaging to
    the reference is returned; two-sided feasibility is available because
    the reference is strictly positive at every variable position.
    """
    system = build_constraint_system(p, mode)
    if system.residual_of(system.reference) > 1e-7:
        raise ValueError("reference coefficients do not satisfy the system")
    basis, s = nullspace_and_spectrum(system.matrix, tol.rank_rel_tol)
    nullity = basis.shape[0]
    rank = len(system.columns) - nullity
    margin = (float(s[rank - 1] / s[0]) if rank else 0.0,
              float(s[rank] / s[0]) if rank < s.size else 0.0)

    if nullity == 0:
        pinned = system.columns
        return ExtremalityCertificate(mode, rank, nullity, pinned,
                                      Verdict.UNIQUE_EXTREME, margin,
                                      None, system)

    pinned = tuple(
        pos for j, pos in enumerate(system.columns)
        if all(abs(basis[k, j]) < tol.abs_tol for k in range(nullity))
    )
    v = basis[0]
    ref = system.reference
    active = np.abs(v) > tol.abs_tol
    t_max = float(np.min(ref[active] / np.abs(v[active])))
    eps = t_max / 2
    witness = (ref + eps * v, ref - eps * v)
    return ExtremalityCertificate(mode, rank, nullity, pinned,
                                  Verdict.NON_UNIQUE, margin, witness, system)


def inflexibility_structural_check(p: PureAssemblage,
                                   tol: Tolerances = DEFAULT_TOL):
    """Structural sufficient condition for two dichotomic parties.

    Searches for settings ``(y1, y2)`` such that the three member sets
    obtained by fixing the first party's outcome (0 then 1) at setting
    ``y1``, and the second party's outcome 0 at setting ``y2``, each
    consist of nonzero, pairwise non-proportional rank-one operators.
    Returns the first such pair, or ``None``.
    """
    scen = p.scenario
    if scen.settings != (2, 2) or scen.outcomes != (2, 2):
        raise ValueError("structural check requires two parties with two "
                         "dichotomic settings each")

    def distinct_nonzero(ops):
        if any(op_rank(op, tol.rank_rel_tol) != 1 for op in ops):
            return False
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if proportional_rank_one(ops[i], ops[j], tol.abs_tol,
                                         tol.rank_rel_tol):
                    return False
        return True

    for y1 in range(2):
        for y2 in range(2):
            set_a0 = [p.member_op((0, a2), (y1, x2))
                      for a2 in range(2) for x2 in range(2)]
            set_a1 = [p.member_op((1, a2), (y1, x2))
                      for a2 in range(2) for x2 in range(2)]
            set_b0 = [p.member_op((a1, 0), (x1, y2))
                      for a1 in range(2) for x1 in range(2)]
            if all(distinct_nonzero(s) for s in (set_a0, set_a1, set_b0)):
                return (y1, y2)
    return None


@dataclass(frozen=True)
class Witness:
    """Linear functional exposing a pure-member reference assemblage.

    Evaluates a candidate assemblage by overlapping each member with the
    normalized reference member (zero where the reference vanishes).
    """

    reference: PureAssemblage

    def normalized_member(self, a, x):
        entry = self.reference.members.get((tuple(a), tuple(x)))
        if entry is None:
            return None
        _, ket = entry
        return np.outer(ket.data, ket.data.conj())


def witness_eval(w: Witness, s: Assemblage) -> float:
    """Value of the exposing functional on ``s``."""
    if s.scenario.trusted_dims != w.reference.scenario.trusted_dims:
        raise ValueError("dimension mismatch between witness and assemblage")
    total = 0.0
    for a, x in s.scenario.positions():
        rho = w.normalized_member(a, x)
        if rho is None:
            continue
        total += float(np.trace(rho @ s.members[(a, x)].data).real)
    return total
