"""State assemblages on a trusted subsystem.

An assemblage maps outcome/setting vectors of the untrusted parties to
subnormalized positive operators on the trusted system.  This module
builds assemblages from explicit quantum (or Hermitian) realizations,
verifies the no-signaling constraint family, evaluates local hidden state
models, and decides LHS membership exactly for pure-member assemblages.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .core import (BUILD_SLACK, DEFAULT_TOL, Tolerances, checked_copy, nnls,
                   psd_deviation)
from .channels import State
from .constraints import (ConstraintMode, NsReport, _contract, evaluate, family,
                          no_signaling_factors)


@dataclass(frozen=True)
class Scenario:
    """Steering scenario: parties, settings, outcomes, trusted dimensions.

    ``trusted_dims`` is the subsystem split of the trusted side; for plain
    state assemblages this is usually ``(d_C,)`` and for assemblages of
    Choi matrices ``(d_out, d_in)``.
    """

    settings: tuple
    outcomes: tuple
    trusted_dims: tuple

    def __post_init__(self):
        settings = tuple(int(m) for m in self.settings)
        outcomes = tuple(int(k) for k in self.outcomes)
        trusted = tuple(int(d) for d in self.trusted_dims)
        if len(settings) != len(outcomes) or not settings:
            raise ValueError("settings and outcomes must have equal, nonzero length")
        if any(v < 1 for v in settings + outcomes + trusted):
            raise ValueError("all scenario entries must be >= 1")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "trusted_dims", trusted)

    @property
    def n_parties(self) -> int:
        return len(self.settings)

    @property
    def trusted_dim(self) -> int:
        return prod(self.trusted_dims)

    @functools.cached_property
    def size(self) -> int:
        """The number of positions."""
        return prod(self.settings) * prod(self.outcomes)

    @functools.cached_property
    def party_major(self) -> np.ndarray:
        """The place of each position, in :meth:`positions` order, among the
        columns of a Kronecker product of per-party factors over ``(x, a)``,
        which run ``(x_1, a_1, x_2, a_2, ...)``.  Cached, and read-only."""
        n = self.n_parties
        sizes = [size for pair in zip(self.settings, self.outcomes) for size in pair]
        order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        place = np.arange(self.size).reshape(sizes).transpose(order).ravel()
        place.flags.writeable = False
        return place

    def setting_vectors(self):
        return itertools.product(*(range(m) for m in self.settings))

    def outcome_vectors(self):
        return itertools.product(*(range(k) for k in self.outcomes))

    def positions(self):
        for x in self.setting_vectors():
            for a in self.outcome_vectors():
                yield a, x

    def index(self, a, x) -> int:
        """Place of position ``(a, x)`` in :meth:`positions` order."""
        return int(self.indices([(a, x)])[0])

    def indices(self, positions) -> np.ndarray:
        """Place of every position in :meth:`positions` order, in one
        vectorized pass.

        The first position outside the scenario raises a ``ValueError``
        whose ``place`` is where it sits in ``positions``.
        """
        positions, n = list(positions), self.n_parties
        sizes = self.settings + self.outcomes
        try:
            digits = np.array([tuple(x) + tuple(a) for a, x in positions],
                              dtype=np.int64).reshape(len(positions), len(sizes))
            # 2n digits in all, and n of them outcomes: n settings too
            if all(len(a) == n for a, _ in positions) and (
                    (digits >= 0) & (digits < sizes)).all():
                return np.ravel_multi_index(tuple(digits.T), sizes)
        except (ValueError, OverflowError):  # ragged, or beyond int64
            pass
        for place, (a, x) in enumerate(positions):
            a, x = tuple(a), tuple(x)
            if len(a) != n or len(x) != n or not all(0 <= v < s for v, s in zip(x + a, sizes)):
                exc = ValueError(f"position {(a, x)} outside the scenario")
                exc.place = place
                raise exc


@dataclass(frozen=True)
class Assemblage:
    """Members as one read-only complex ``(positions, D, D)`` array, in
    ``scenario.positions()`` order.

    The constructor checks shape and finiteness only: positivity and the
    per-setting trace sums are constraints that the verifiers measure
    against ``abs_tol``.
    """

    scenario: Scenario
    members: np.ndarray = field(repr=False)

    def __post_init__(self):
        scen, d = self.scenario, self.scenario.trusted_dim
        members = checked_copy(self.members, complex, "members", (scen.size, d, d))
        object.__setattr__(self, "members", members)

    def member(self, a, x) -> np.ndarray:
        """The ``(D, D)`` member at ``(a, x)``, a read-only view."""
        return self.members[self.scenario.index(a, x)]


# How far a weight or a table entry of an LhsModel may fall below zero; a
# sum or a trace may sit BUILD_SLACK from one.
_NEGATIVE_SLACK = 1e-12


@dataclass(frozen=True)
class LhsModel:
    """Convex mixture of trusted states with local response tables.

    With ``h`` hidden variables, ``weights`` is a float ``(h,)`` array,
    ``states`` a complex ``(h, D, D)`` array of density matrices and
    ``tables[i]`` a float ``(h, m_i, k_i)`` array: ``tables[i][j]`` is the
    (settings x outcomes) conditional distribution of party ``i`` under
    hidden variable ``j``.  Each check runs once over the whole array;
    the arrays are read-only copies, with no non-finite entry.
    """

    weights: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    tables: tuple = field(repr=False)

    def __post_init__(self):
        weights = checked_copy(self.weights, float, "weights", (len(self.weights),))
        if np.any(weights < -_NEGATIVE_SLACK):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1) > BUILD_SLACK:
            raise ValueError("weights must sum to 1")
        h, shape = len(weights), np.shape(self.states)
        d = shape[-1] if shape else 0
        states = checked_copy(self.states, complex, "states", (h, d, d))
        if np.any(psd_deviation(states) > DEFAULT_TOL.abs_tol):
            raise ValueError("state must be Hermitian and PSD")
        if np.any(np.abs(np.trace(states, axis1=1, axis2=2) - 1) > BUILD_SLACK):
            raise ValueError("state must have unit trace")
        tables = tuple(checked_copy(t, float, "tables") for t in self.tables)
        for i, t in enumerate(tables):
            if t.ndim != 3 or len(t) != h:
                raise ValueError(f"tables[{i}] have shape {t.shape}, expected "
                                 f"({h}, settings, outcomes)")
            if np.any(t < -_NEGATIVE_SLACK) or np.any(
                    np.abs(t.sum(axis=2) - 1) > BUILD_SLACK):
                raise ValueError("response tables must be conditional distributions")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "tables", tables)


@dataclass(frozen=True)
class PureAssemblage:
    """Assemblage whose members are zero or weighted rank-one projectors.

    ``support`` lists the non-zero positions in sorted ``(a, x)`` order,
    and :attr:`at` their places in ``scenario.positions()``.  The member at
    ``support[j]`` is ``weights[j] |k_j><k_j|``, where ``k_j = kets[j]`` is
    a unit row of the complex ``(len(support), D)`` array ``kets``; every
    other position is exactly zero.  The arrays are read-only, and the
    constructor checks only their shapes and finiteness.
    """

    scenario: Scenario
    support: tuple
    weights: np.ndarray = field(repr=False)
    kets: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, d = len(self.support), self.scenario.trusted_dim
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", checked_copy(self.weights, float, "weights", (n,)))
        object.__setattr__(self, "kets", checked_copy(self.kets, complex, "kets", (n, d)))

    @functools.cached_property
    def at(self) -> np.ndarray:
        """The place of each support position in ``scenario.positions()``,
        in support order.  Cached, and read-only."""
        at = self.scenario.indices(self.support)
        at.flags.writeable = False
        return at

    def proportional(self, rows, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Entry ``[i, j]``: whether ``kets[rows[i]]`` and ``kets[j]`` are
        proportional, that is ``|<k_i|k_j>| > 1 - abs_tol``."""
        return np.abs(self.kets[rows].conj() @ self.kets.T) > 1 - tol.abs_tol


def measured_members(w: np.ndarray, povms, scenario: Scenario) -> np.ndarray:
    """``Tr_untrusted[(E_{a_1|x_1} (x) ... (x) E_{a_n|x_n} (x) 1) w]`` at every
    position, as a ``(positions, D, D)`` array.

    ``w`` is a square array on the untrusted parties (in order) (x) the
    trusted system.  It may be any Hermitian operator, not only a state,
    so this also measures a Hermitian realization.  One party at a time,
    its effects (stacked over ``(x_i, a_i)``) are contracted against its
    row and column index of ``w``, which leaves the positions party-major,
    ``(x_1, a_1, x_2, a_2, ...)``; :attr:`Scenario.party_major` takes them
    to ``positions()`` order.
    """
    t = w[None]  # (effects so far, rest, rest)
    for i, (povm, m, k) in enumerate(zip(povms, scenario.settings, scenario.outcomes)):
        if not povm.covers(m, k):
            raise ValueError(f"POVM of party {i} is too small for the scenario")
        rest = t.shape[-1] // povm.dim
        t = t.reshape(len(t), povm.dim, rest, povm.dim, rest)
        # sum_{r,c} E[c, r] t[:, r, :, c, :]: the partial trace of (E (x) 1) t
        t = np.tensordot(t, povm.effects[:m, :k], axes=([1, 3], [3, 2]))
        t = np.moveaxis(t, (3, 4), (1, 2)).reshape(-1, rest, rest)
    return t[scenario.party_major]


def assemblage_from_realization(rho: State, povms, scenario: Scenario) -> Assemblage:
    """Measure the untrusted parties of ``rho`` and collect the conditional
    trusted-system operators."""
    expected = tuple(p.dim for p in povms) + scenario.trusted_dims
    if rho.dims != expected:
        raise ValueError(f"state dims {rho.dims} do not match scenario dims {expected}")
    return Assemblage(scenario, measured_members(rho.matrix, povms, scenario))


def verify_ns(s: Assemblage, tol: float = DEFAULT_TOL.abs_tol) -> NsReport:
    """Check that every member is PSD and every constraint of the full
    no-signaling family holds; see :func:`.constraints.evaluate` for how
    each violation is measured."""
    return evaluate(family(s.scenario, ConstraintMode.FULL_NS), s.members, tol)


def mixture_members(tables, ops, scenario: Scenario) -> np.ndarray:
    """``sum_j prod_i p_j(a_i|x_i) ops[j]`` at every position, as a
    ``(positions, D, D)`` array.

    ``tables[i]`` is party ``i``'s ``(h, settings, outcomes)`` array of
    response tables, ``tables[i][j]`` its table under hidden variable ``j``.
    """
    ops = np.asarray(ops)
    probs = np.ones((len(ops), 1, 1))  # (j, setting vector, outcome vector)
    for table, m, k in zip(tables, scenario.settings, scenario.outcomes, strict=True):
        table = np.asarray(table, dtype=float)[:, :m, :k]
        probs = probs[:, :, None, :, None] * table[:, None, :, None, :]
        probs = probs.reshape(len(ops), probs.shape[1] * m, -1)
    return np.tensordot(probs.reshape(len(ops), -1), ops, axes=(0, 0))


def lhs_assemblage(model: LhsModel, scenario: Scenario) -> Assemblage:
    """Assemble the members generated by a local hidden state model."""
    ops = model.weights[:, None, None] * model.states
    return Assemblage(scenario, mixture_members(model.tables, ops, scenario))


class MemberError(ValueError):
    """A member that :func:`canonicalize_pure` rejects, at ``position``;
    ``position`` is ``None`` for a fault of the members as a whole."""

    def __init__(self, position, fault: str):
        super().__init__(fault if position is None
                         else f"member {position[0]}|{position[1]} {fault}")
        self.position = position


def canonicalize_pure(s: Assemblage, tol: Tolerances = DEFAULT_TOL) -> PureAssemblage:
    """Split each member into (trace weight, principal unit ket) or zero.

    Raises :class:`MemberError` if any member is not PSD within
    ``abs_tol`` (as :func:`verify_ns` measures it) or has rank two or
    more, and one with no position if no member has trace at least
    ``abs_tol``.  A member's rank is that of its Hermitian part, taken
    from the eigendecomposition that gives its ket: the count of
    ``|lambda|`` above ``rank_rel_tol`` times the largest.
    """
    positions = list(s.scenario.positions())
    not_psd = np.flatnonzero(psd_deviation(s.members) > tol.abs_tol)
    if len(not_psd):
        raise MemberError(positions[not_psd[0]], "is not PSD")
    weights = np.trace(s.members, axis1=1, axis2=2).real
    kept = np.flatnonzero(weights >= tol.abs_tol)
    if not len(kept):
        raise MemberError(None, "no member has trace above abs_tol")
    stack = s.members[kept]
    evals, vecs = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2)
    mags = np.abs(evals)
    ranks = np.count_nonzero(mags > tol.rank_rel_tol * mags.max(axis=1)[:, None], axis=1)
    if np.any(ranks > 1):
        j = int(np.argmax(ranks > 1))
        raise MemberError(positions[kept[j]], f"has rank {ranks[j]} > 1")
    order = sorted(range(len(kept)), key=lambda j: positions[kept[j]])
    return PureAssemblage(s.scenario, tuple(positions[kept[j]] for j in order),
                          weights[kept[order]], vecs[order, :, -1])


@dataclass(frozen=True)
class NoLhs:
    """Negative LHS verdict with the reason the weight system failed."""

    reason: str
    residual: float = None


def consistent_strategies(p: PureAssemblage, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The deterministic strategies that may carry weight in an LHS model.

    A strategy is kept when every position it selects is non-zero and its
    ket overlaps the ket selected at x=(0,...,0), the *anchor*, by more
    than ``1 - abs_tol``.  One overlap matrix (anchors x non-zero
    positions) gives each anchor its allowed positions; an anchor with a
    setting vector that allows none is dropped.  The others are completed
    one party at a time, all partial strategies at once: a response of
    party i is kept at x_i only if, for every setting vector, the later
    parties can still complete it, which for the last party is exact.

    Row j holds strategy j's responses, party after party:
    f_0(0), ..., f_0(m_0 - 1), f_1(0), ....  Rows are in the order of
    ``itertools.product`` over the per-party response tables.
    """
    scen = p.scenario
    n, width = scen.n_parties, prod(scen.outcomes)
    anchors = np.flatnonzero(p.at < width)  # the positions at x=(0,...,0)
    if not len(anchors):
        return np.zeros((0, sum(scen.settings)), dtype=int)
    allowed = np.zeros((len(anchors), scen.size), dtype=bool)
    allowed[:, p.at] = p.proportional(anchors, tol)
    allowed[:, :width] = False
    allowed[np.arange(len(anchors)), p.at[anchors]] = True
    alive = allowed.reshape(len(anchors), -1, width).any(axis=2).all(axis=1)
    allowed = allowed.reshape((len(anchors),) + scen.settings + scen.outcomes)
    # axes: (partial strategy, assigned settings, a_i, x_i, a_{i+1}, x_{i+1}, ...)
    interleaved = [0] + [1 + axis for i in range(n) for axis in (n + i, i)]
    allowed = allowed[alive].transpose(interleaved)[:, None]
    strategies = np.zeros((len(allowed), 0), dtype=int)
    for m in scen.settings:
        reach = allowed.any(axis=tuple(range(4, allowed.ndim, 2)))
        ok = reach.all(axis=(1,) + tuple(range(4, reach.ndim)))  # (partial, a_i, x_i)
        # The kept responses of a partial strategy are the product of its
        # per-setting outcome lists.  Child ``rank`` of each is decoded in
        # mixed radix, last setting fastest, so children come in
        # lexicographic order.
        sizes = ok.sum(axis=1)
        counts = sizes.prod(axis=1)
        parent = np.repeat(np.arange(len(counts)), counts)
        rank = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        outcomes = np.argsort(~ok, axis=1, kind="stable")  # allowed ones first
        f = np.empty((len(parent), m), dtype=int)
        for x in reversed(range(m)):
            size = sizes[parent, x]
            f[:, x] = outcomes[parent, rank % size, x]
            rank //= size
        if allowed.ndim > 4:
            nxt = np.moveaxis(allowed, 1, 3)[parent[:, None], f, np.arange(m)]
            allowed = nxt.reshape((len(parent), m * nxt.shape[2]) + nxt.shape[3:])
        strategies = np.hstack([strategies[parent], f])
    return strategies[np.lexsort(strategies.T[::-1])]


def _response_coordinates(q: np.ndarray, k: int, tables: np.ndarray) -> np.ndarray:
    """One party's factor ``q`` summed over the responses of each row of
    ``tables``: the ``(factor rows, tables)`` coordinates of their 0/1
    vectors over ``(x, a)``."""
    return q[:, np.arange(tables.shape[1]) * k + tables].sum(axis=2)


def quantile_coupling(box: np.ndarray):
    """One party's box as a mixture of deterministic response tables, in
    closed form: the quantile (comonotone) coupling of its settings.

    ``box`` is the ``(m, k)`` array of nonnegative ``p(a|x)``.  Draw ``u``
    from ``[0, T)``, ``T`` the largest row sum, and at each setting answer
    the outcome whose cumulative interval contains ``u``.  The cuts are 0,
    ``T`` and the cumulative sums of every row but its last; each of the
    ``h <= m (k - 1) + 1`` intervals between consecutive cuts is one
    table, weighted by its length.  Returns ``(tables, weights)``:
    ``tables`` the int ``(h, m)`` array of responses, ``weights`` the
    ``(h,)`` lengths, which sum to ``T`` and give back each row of ``box``
    (the last outcome of a row with a smaller sum takes the difference).
    """
    cumulative = np.cumsum(box, axis=1)
    cuts = np.unique(np.concatenate(([0.0, cumulative[:, -1].max()],
                                     cumulative[:, :-1].ravel())))
    tables = (cumulative[:, None, :-1] <= cuts[None, :-1, None]).sum(axis=2).T
    return tables, np.diff(cuts)


def _per_party_weights(per_party, factors, outcomes, b, coordinates, outside,
                       count, tol: Tolerances):
    """Weights on the strategies from one closed-form coupling per party,
    or ``None``.

    ``per_party[i]`` holds party i's responses in every strategy.  If each
    party has ``T_i`` distinct tables and ``prod(T_i) == count``, the
    strategies are every combination of them, and in lexicographic order
    strategy ``(j_0, ..., j_{n-1})`` sits at the mixed-radix place of its
    table indices.  Party i's marginal box, ``b`` at the other parties'
    setting 0 summed over their outcomes, is local whatever it is (Fine,
    PRL 48, 291, 1982): :func:`quantile_coupling` gives its weights
    ``x_i`` on at most ``m_i (k_i - 1) + 1`` tables, and the candidate is
    ``x_0 (x) ... (x) x_{n-1}``.  Its coordinates are the Kronecker
    product of the per-party fits, so the whole-system residual
    ``hypot(||fit - Q^T b||, outside)`` costs no joint matrix.  ``None``
    when the strategies are not a product set, a coupling table is not
    among its party's tables, or that residual reaches
    ``nnls_residual_tol``.
    """
    codes = []
    for f, k in zip(per_party, outcomes):
        m = f.shape[1]
        if k ** m > np.iinfo(np.int64).max:  # a table's code would overflow
            return None
        codes.append(np.unique(np.ravel_multi_index(tuple(f.T), (k,) * m)))
    if prod(len(c) for c in codes) != count:
        return None
    weights, fit = np.ones(()), np.ones(())
    for i, (q, k, c) in enumerate(zip(factors, outcomes, codes)):
        at_zero = tuple(slice(None) if j == i else slice(kj) for j, kj in enumerate(outcomes))
        marginal = b[at_zero].sum(axis=tuple(j for j in range(len(outcomes)) if j != i))
        tables, w = quantile_coupling(marginal.reshape(-1, k))
        code = np.ravel_multi_index(tuple(tables.T), (k,) * tables.shape[1])
        if not np.isin(code, c).all():
            return None
        x = np.zeros(len(c))
        x[np.searchsorted(c, code)] = w
        weights = np.multiply.outer(weights, x)
        fit = np.multiply.outer(fit, _response_coordinates(q, k, tables) @ w)
    if np.hypot(np.linalg.norm(fit.ravel() - coordinates), outside) >= tol.nnls_residual_tol:
        return None
    return weights.ravel()


def pure_lhs_decide(p: PureAssemblage, tol: Tolerances = DEFAULT_TOL):
    """Exact LHS decision for pure-member assemblages.

    Works over global deterministic strategies.  A strategy that selects a
    zero position must carry weight zero (a vanishing PSD sum forces every
    term to vanish), as must a strategy whose selected kets are not all
    pairwise proportional (its hidden state would have to be proportional
    to two non-proportional pure states).  Only the other strategies are
    enumerated (:func:`consistent_strategies`); they feed a nonnegative
    weight system ``A w = b`` over the non-zero positions, ``b`` the
    member traces.  Feasibility of that system is equivalent to the
    existence of an LHS model, and any feasible weight vector is returned
    as one.

    The system is solved in no-signaling coordinates.  Written over all
    positions, a deterministic strategy's column of ``A`` is the Kronecker
    product over parties of the 0/1 vectors of their responses, a
    no-signaling vector.  So it lies in the span of ``Q``, the Kronecker
    product of :func:`.constraints.no_signaling_factors`, and its
    coordinates ``Q^T A`` are the Kronecker product of each party's factor
    summed over its responses.  Then ``||A w - b||^2 = ||Q^T A w - Q^T
    b||^2 + ||b - Q Q^T b||^2``: the NNLS runs on ``(Q^T A, Q^T b)``, with
    ``prod(m_i (k_i - 1) + 1)`` rows whatever the support, and the
    residual reported is that of the whole system.  Neither ``A`` nor
    ``Q`` is formed.

    When the strategies are a product set, one set of response tables per
    party, a per-party candidate is tried first (:func:`_per_party_weights`):
    each party's marginal box split in closed form by its quantile
    coupling, their weights multiplied, with no solver.  It is kept only if
    it passes the same whole-system residual check, so it is an LHS model
    by the argument above.  Otherwise the joint system is solved by NNLS,
    and every ``NoLhs`` residual is the joint solve's.
    """
    scen = p.scenario
    strategies = consistent_strategies(p, tol)
    if not len(strategies):
        return NoLhs("no deterministic strategy selects pairwise proportional "
                     "pure states on its support")

    rows = np.full(scen.size, -1)
    rows[p.at] = np.arange(len(p.support))
    offsets = np.cumsum((0,) + scen.settings[:-1])
    per_party = np.split(strategies, offsets[1:], axis=1)
    factors = no_signaling_factors(scen)
    # b over (x_i, a_i) per party; each contraction takes the first party
    # axis left and appends that party's coordinate axis
    b = np.zeros(scen.size)
    b[scen.party_major[p.at]] = p.weights
    b = b.reshape([m * k for m, k in zip(scen.settings, scen.outcomes)])
    coordinates = _contract(b, [q.T for q in factors])
    projection = _contract(coordinates, factors)
    outside = np.linalg.norm(b - projection.reshape(b.shape))  # ||b - Q Q^T b||
    x = _per_party_weights(per_party, factors, scen.outcomes, b, coordinates, outside,
                           len(strategies), tol)
    if x is None:
        columns = np.ones((len(strategies), 1))  # (Q^T A)^T
        for q, k, f in zip(factors, scen.outcomes, per_party):
            part = _response_coordinates(q, k, f)
            columns = (columns[:, :, None] * part.T[:, None, :]).reshape(len(strategies), -1)
        x, residual = nnls(columns.T, coordinates)
        residual = float(np.hypot(residual, outside))
        if residual >= tol.nnls_residual_tol:
            return NoLhs("nonnegative weight system over deterministic strategies "
                         "is infeasible", residual=residual)

    # The model: the strategies with positive weight, each with the ket its
    # responses select at x=(0,...,0) and one deterministic table per party.
    keep = x > 0
    chosen = strategies[keep]
    total = sum(x[keep].tolist())  # left to right, one weight at a time
    kets = p.kets[rows[np.ravel_multi_index(tuple(chosen[:, offsets].T), scen.outcomes)]]
    states = kets[:, :, None] * kets.conj()[:, None, :]
    tables = tuple(np.eye(k)[f] for k, f in
                   zip(scen.outcomes, np.split(chosen, offsets[1:], axis=1)))
    return LhsModel(x[keep] / total, states, tables)
