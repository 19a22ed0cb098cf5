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
from .constraints import (ConstraintMode, Family, column_order, family, magnitudes,
                          project, vectorize)


@dataclass(frozen=True)
class LinearSystem:
    """The reduced real system ``A c = b`` over coefficients at non-zero
    positions, given by the family and the unit members it is built from.

    :func:`decomposition_analysis` ranks :meth:`projected`, which forms
    neither ``A`` nor the kernel basis; ``matrix`` and ``rhs`` are built on
    first use.
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

    @property
    def full(self) -> bool:
        """Whether the columns are every position of the scenario."""
        scen = self.family.scenario
        return len(self.columns) == prod(scen.settings) * prod(scen.outcomes)

    def kernel(self, rel_tol: float) -> tuple:
        """``(K, N)``: orthonormal columns ``K`` spanning the kernel of
        ``B_S``, the zero-target coefficient rows with no reduction
        restricted to the columns, and their coordinates ``N`` in
        :attr:`.Family.certificate_kernel` (``None`` on a full support).

        Every unit has trace one, so for each row of ``B`` the rows of the
        system at the diagonal coordinates sum to that row of ``B_S``: every
        solution of ``A c = 0`` has ``B_S c = 0``, and the system's kernel
        is ``K`` times the kernel of ``A K``.  ``K`` is made of the vectors
        of :attr:`.Family.certificate_kernel` that vanish off the columns,
        with their rows taken in column order.  On a full support that is
        the family's own read-only array: its rows run in sorted ``(a, x)``
        order, as the columns do.  Off it, those vectors are found by
        ranking the kernel's rows there, in ``positions()`` order, relative
        to their largest singular value, as the system is ranked, so that
        ``K`` loses no kernel vector.  Either way this forms
        :attr:`.Family.certificate_kernel`; :func:`decomposition_analysis`
        calls it only off a full support.
        """
        full = self.family.certificate_kernel
        if self.full:
            return full, None
        row = column_order(self.family.scenario)  # each position's row of full
        off = np.ones(len(full), dtype=bool)
        off[self.at] = False
        n = nullspace(full[row[off]], rel_tol).T
        return full[row[self.at]] @ n, n

    def projected(self, n) -> np.ndarray:
        """``A K`` for ``N`` from :meth:`kernel`, ``None`` on a full support,
        by :func:`.constraints.project`: the same singular values as
        ``matrix @ K``, with neither ``A`` nor ``K`` formed."""
        return project(self.family, self.at, self.units, n)


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
    # A K, each over its s_max; the rank decision is rank_rel_tol between
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

    The system is ranked on ``A K`` (:meth:`LinearSystem.projected`), ``K``
    a basis of the kernel of its coefficient block with no reduction.  On
    a full support ``A K`` comes from the party factors alone, and ``K``
    (:attr:`.Family.certificate_kernel`) is formed only when the nullity is
    positive, to map the kernel back to coefficients; off a full support
    :meth:`LinearSystem.kernel` forms it to restrict it to the columns.
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
    k, n = (None, None) if system.full else system.kernel(tol.rank_rel_tol)
    projected, s = nullspace_and_spectrum(system.projected(n), tol.rank_rel_tol)
    nullity, width = projected.shape
    rank = len(system.columns) - nullity
    kept = width - nullity  # the rank of A K; s is its spectrum
    margin = (float(s[kept - 1] / s[0]) if kept else 0.0,
              float(s[kept] / s[0]) if kept < s.size else 0.0)

    if nullity == 0:
        pinned = system.columns
        return ExtremalityCertificate(mode, rank, nullity, pinned,
                                      Verdict.UNIQUE_EXTREME, margin, (0.0, 0.0),
                                      None, system)

    basis = projected @ (system.family.certificate_kernel if k is None else k).T
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
