"""Extremality certification for pure-member assemblages.

A constraint family (full no-signaling, no-signaling channels, or the
relaxed two-party variant used for channel steering) becomes one real
linear system over the nonnegative coefficients sitting at the non-zero
positions of a fixed support pattern.  Rank-nullity of that system
decides whether the reference coefficients are the unique solution:
nullity zero certifies an extreme point, positive nullity produces an
explicit pair of distinct feasible decompositions averaging to the
reference.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .core import DEFAULT_TOL, Tolerances, nullspace, nullspace_and_spectrum
from .assemblages import PureAssemblage
from .constraints import ConstraintMode, Family, family, magnitudes, project, vectorize


@dataclass(frozen=True)
class LinearSystem:
    """The reduced real system ``A c = b`` over coefficients at non-zero
    positions, given by the family and the unit members it is built from.

    :func:`decomposition_analysis` ranks ``A K`` by
    :func:`.constraints.project` at :attr:`at`, which forms neither ``A``
    nor the kernel basis; ``matrix`` and ``rhs`` are built on first use.
    """

    columns: tuple  # position (a, x) of each column
    reference: np.ndarray  # coefficient vector of the input assemblage
    family: Family = field(repr=False)
    units: np.ndarray = field(repr=False)  # unit member at each column

    @functools.cached_property
    def at(self) -> np.ndarray:
        """The place of each column's position in ``positions()`` order."""
        return self.family.scenario.indices(self.columns)

    @functools.cached_property
    def _system(self):
        return vectorize(self.family, self.at, self.units)

    @property
    def matrix(self) -> np.ndarray:
        """``A``, by :func:`.constraints.vectorize`."""
        return self._system[0]

    @property
    def rhs(self) -> np.ndarray:
        return self._system[1]

    def deviations(self, c) -> np.ndarray:
        """Each constraint's deviation (:func:`.constraints.magnitudes`) on
        ``sum_j c_j units[j]``."""
        scen = self.family.scenario
        members = np.zeros((prod(scen.settings) * prod(scen.outcomes),)
                           + self.units.shape[1:], dtype=complex)
        members[self.at] = np.asarray(c)[:, None, None] * self.units
        return magnitudes(self.family, members)

    def residual_of(self, c) -> float:
        """The family's largest deviation on ``sum_j c_j units[j]``; not a
        residual of the reduced rows."""
        return float(self.deviations(c).max())


class UnsatisfiedReference(ValueError):
    """The member traces themselves violate the family; the message names
    the constraint they violate most (the first, in family order, within
    ``abs_tol`` of the largest deviation), and by how much."""


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
    # (smallest singular value kept, largest dropped) of the ranked matrix
    # A K N, each over its s_max; the rank decision is rank_rel_tol between
    # the two.
    rank_margin: tuple
    # (largest |kernel entry| over pinned columns, smallest column-wise
    # largest |kernel entry| over free ones), 0.0 for an empty side; the
    # pinned set is decided by abs_tol between the two.
    pin_margin: tuple
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
            "pin_margin": list(self.pin_margin),
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
    units = p.kets[:, :, None] * p.kets[:, None, :].conj()
    return LinearSystem(p.support, p.weights, family(p.scenario, mode), units)


def decomposition_analysis(p: PureAssemblage, mode: ConstraintMode,
                           tol: Tolerances = DEFAULT_TOL) -> ExtremalityCertificate:
    """Rank-nullity analysis of the support pattern's constraint system.

    Nullity zero means the reference coefficients are the only solution,
    certifying an extreme point of the mode's convex set.  Otherwise an
    explicit pair of distinct feasible coefficient vectors averaging to
    the reference is returned; two-sided feasibility is available because
    the reference is strictly positive at every variable position.

    The system is ranked on ``A K N`` (:func:`.constraints.project`, then
    ``N``), the same sequence on every support.  ``K`` is the rows of
    :attr:`.Family.certificate_kernel` at the columns' places,
    :attr:`LinearSystem.at`, and ``N`` a basis of the combinations of its
    columns that vanish off them, ranked relative
    to their largest singular value as the system is (``None`` on a full
    support, where no row is off).  Every unit has trace one, so each row
    of the zero-target block with no reduction, restricted to the columns,
    is a sum of rows of ``A``: every solution of ``A c = 0`` is ``K N y``
    for a solution of ``A K N y = 0``.  ``A K`` comes from the party factors
    alone; the kernel basis is read for its rows off the support, and for
    its rows at the columns only when the nullity is positive, to map the
    kernel back to coefficients.
    """
    system = build_constraint_system(p, mode)
    deviations = system.deviations(system.reference)
    largest = deviations.max()
    if largest > tol.nnls_residual_tol:
        # The first constraint within abs_tol of the largest deviation:
        # deviations equal in exact arithmetic name one constraint,
        # whatever the rounding of their sums.
        worst = int(np.argmax(deviations >= largest - tol.abs_tol))
        raise UnsatisfiedReference(
            "reference coefficients do not satisfy the system: "
            f"'{system.family.names[worst]}' deviates by {deviations[worst]:.3g}")
    fam, scen = system.family, p.scenario
    off = np.delete(np.arange(prod(scen.settings) * prod(scen.outcomes)), system.at)
    n = nullspace(fam.certificate_kernel[off], tol.rank_rel_tol).T if off.size else None
    ranked = project(fam, system.at, system.units)  # A K
    if n is not None:
        ranked = ranked @ n  # A K N; A K is dropped before the rank
    projected, s = nullspace_and_spectrum(ranked, tol.rank_rel_tol)
    nullity, width = projected.shape
    rank = len(system.columns) - nullity
    kept = width - nullity  # the rank of A K N; s is its spectrum
    margin = (float(s[kept - 1] / s[0]) if kept else 0.0,
              float(s[kept] / s[0]) if kept < s.size else 0.0)

    if nullity == 0:
        pinned = system.columns
        return ExtremalityCertificate(mode, rank, nullity, pinned,
                                      Verdict.UNIQUE_EXTREME, margin, (0.0, 0.0),
                                      None, system)

    k = fam.certificate_kernel[system.at]
    basis = projected @ (k if n is None else k @ n).T
    reach = np.abs(basis).max(axis=0)  # how far each coefficient can move
    fixed = reach < tol.abs_tol
    pinned = tuple(pos for pos, pin in zip(system.columns, fixed) if pin)
    pin_margin = (float(reach[fixed].max()) if fixed.any() else 0.0,
                  float(reach[~fixed].min()) if not fixed.all() else 0.0)
    # The SVD fixes a kernel vector only up to sign: make the first entry
    # within abs_tol of the largest |v| positive, so the witness order
    # follows neither that sign nor the rounding of equal entries.
    v = basis[0]
    mag = np.abs(v)
    if v[np.argmax(mag >= mag.max() - tol.abs_tol)] < 0:
        v = -v
    ref = system.reference
    active = np.abs(v) > tol.abs_tol
    t_max = float(np.min(ref[active] / np.abs(v[active])))
    eps = t_max / 2
    witness = (ref + eps * v, ref - eps * v)
    return ExtremalityCertificate(mode, rank, nullity, pinned, Verdict.NON_UNIQUE,
                                  margin, pin_margin, witness, system)


def inflexibility_structural_check(p: PureAssemblage,
                                   tol: Tolerances = DEFAULT_TOL):
    """Structural sufficient condition for two dichotomic parties.

    Searches for settings ``(y1, y2)`` such that the three member sets
    obtained by fixing the first party's outcome (0 then 1) at setting
    ``y1``, and the second party's outcome 0 at setting ``y2``, each
    consist of nonzero members with pairwise non-proportional kets (as
    :meth:`.PureAssemblage.proportional` decides).  Returns the first such
    pair, or ``None``.
    """
    scen = p.scenario
    if scen.settings != (2, 2) or scen.outcomes != (2, 2):
        raise ValueError("structural check requires two parties with two "
                         "dichotomic settings each")

    row = {pos: j for j, pos in enumerate(p.support)}
    proportional = p.proportional(slice(None), tol)

    def distinct_nonzero(positions):
        rows = [row.get(pos) for pos in positions]
        return None not in rows and not np.triu(proportional[np.ix_(rows, rows)], 1).any()

    for y1 in range(2):
        for y2 in range(2):
            set_a0 = [((0, a2), (y1, x2)) for a2 in range(2) for x2 in range(2)]
            set_a1 = [((1, a2), (y1, x2)) for a2 in range(2) for x2 in range(2)]
            set_b0 = [((a1, 0), (x1, y2)) for a1 in range(2) for x1 in range(2)]
            if all(distinct_nonzero(s) for s in (set_a0, set_a1, set_b0)):
                return (y1, y2)
    return None
