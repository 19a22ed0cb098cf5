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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerances,
    nullspace_and_spectrum,
    op_rank,
    proportional_rank_one,
)
from .assemblages import PureAssemblage
from .constraints import ConstraintMode, family, vectorize


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


def build_constraint_system(p: PureAssemblage, mode: ConstraintMode) -> LinearSystem:
    """The mode's constraint family, vectorized over the support pattern.

    Unknowns are the coefficients multiplying fixed unit-trace rank-one
    operators at the non-zero positions; the reference coefficients (the
    member traces) satisfy the system by construction.
    """
    positions = tuple(sorted(p.members))
    kets = [p.members[pos][1].data for pos in positions]
    units = np.stack([np.outer(k, k.conj()) for k in kets])
    matrix, rhs = vectorize(family(p.scenario, mode), positions, units)
    reference = np.array([p.members[pos][0] for pos in positions])
    return LinearSystem(matrix, rhs, positions, reference)


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
