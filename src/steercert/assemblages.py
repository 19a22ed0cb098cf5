"""State assemblages on a trusted subsystem.

An assemblage maps outcome/setting vectors of the untrusted parties to
subnormalized positive operators on the trusted system.  This module
builds assemblages from explicit quantum (or Hermitian) realizations,
verifies the no-signaling constraint family, evaluates local hidden state
models, and decides LHS membership exactly for pure-member assemblages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .core import (
    DEFAULT_TOL,
    Ket,
    Op,
    Tolerances,
    identity,
    is_psd,
    kron_all,
    nnls,
    op_rank,
    partial_trace,
    principal_eigenvector,
)
from .channels import State
from .constraints import ConstraintMode, NsReport, evaluate, family


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

    def setting_vectors(self):
        return itertools.product(*(range(m) for m in self.settings))

    def outcome_vectors(self):
        return itertools.product(*(range(k) for k in self.outcomes))

    def positions(self):
        for x in self.setting_vectors():
            for a in self.outcome_vectors():
                yield a, x


@dataclass(frozen=True)
class Assemblage:
    """Members indexed by (outcome vector, setting vector)."""

    scenario: Scenario
    members: dict = field(repr=False)  # (a, x) -> Op

    def __post_init__(self):
        # The trace of each per-setting total is a constraint of the
        # no-signaling family (checked by ``verify_ns`` against ``abs_tol``),
        # not a condition on constructing the object.
        mem = {}
        for a, x in self.scenario.positions():
            op = self.members[(a, x)]
            if op.dims != self.scenario.trusted_dims:
                op = Op(self.scenario.trusted_dims, op.data)
            if not is_psd(op, 1e-8):
                raise ValueError(f"member {a}|{x} is not PSD")
            mem[(a, x)] = op
        object.__setattr__(self, "members", mem)

    def member(self, a, x) -> Op:
        return self.members[(tuple(a), tuple(x))]


@dataclass(frozen=True)
class LhsModel:
    """Convex mixture of trusted states with local response tables.

    ``tables[j][i]`` is a (settings x outcomes) conditional distribution
    for party ``i`` under hidden variable ``j``.
    """

    weights: tuple
    states: tuple  # of State
    tables: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if any(v < -1e-12 for v in w):
            raise ValueError("weights must be nonnegative")
        if abs(sum(w) - 1) > 1e-8:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)
        for tabs in self.tables:
            for table in tabs:
                arr = np.asarray(table, dtype=float)
                if np.any(arr < -1e-12) or np.max(np.abs(arr.sum(axis=1) - 1)) > 1e-8:
                    raise ValueError("response tables must be conditional distributions")


@dataclass(frozen=True)
class PureAssemblage:
    """Assemblage whose members are zero or weighted rank-one projectors.

    ``members`` maps each non-zero position to ``(weight, Ket)`` with a
    unit-norm ket; positions absent from the dict are exactly zero.
    """

    scenario: Scenario
    members: dict = field(repr=False)

    def member_op(self, a, x) -> Op:
        entry = self.members.get((tuple(a), tuple(x)))
        if entry is None:
            d = self.scenario.trusted_dim
            return Op(self.scenario.trusted_dims, np.zeros((d, d), dtype=complex))
        weight, ket = entry
        return Op(self.scenario.trusted_dims, weight * np.outer(ket.data, ket.data.conj()))

    def to_assemblage(self) -> Assemblage:
        members = {pos: self.member_op(*pos) for pos in self.scenario.positions()}
        return Assemblage(self.scenario, members)


@dataclass(frozen=True)
class HermitianRealization:
    """Hermitian operator on untrusted (x) trusted plus per-party POVMs."""

    w: Op
    povms: tuple

    def __post_init__(self):
        tol = 1e-8
        if np.max(np.abs(self.w.data - self.w.data.conj().T)) > tol:
            raise ValueError("realization operator must be Hermitian")


def _members_from_operator(w: Op, povms, scenario: Scenario) -> dict:
    n = scenario.n_parties
    trusted = identity(scenario.trusted_dims)
    members = {}
    for a, x in scenario.positions():
        effect = kron_all([povms[i].effects[x[i]][a[i]] for i in range(n)] + [trusted])
        big = Op(w.dims, effect.data @ w.data)
        members[(a, x)] = partial_trace(big, keep=range(n, len(w.dims)))
    return members


def assemblage_from_realization(rho: State, povms, scenario: Scenario) -> Assemblage:
    """Measure the untrusted parties of ``rho`` and collect the conditional
    trusted-system operators."""
    n = scenario.n_parties
    expected = tuple(p.dim for p in povms) + scenario.trusted_dims
    if rho.dims != expected:
        raise ValueError(f"state dims {rho.dims} do not match scenario dims {expected}")
    for i, p in enumerate(povms):
        if p.settings < scenario.settings[i] or p.outcomes < scenario.outcomes[i]:
            raise ValueError(f"POVM of party {i} is too small for the scenario")
    return Assemblage(scenario, _members_from_operator(rho.op, povms, scenario))


def verify_hermitian_realization(h: HermitianRealization, s: Assemblage,
                                 tol: float = DEFAULT_TOL.abs_tol) -> bool:
    """Whether measuring ``h`` reproduces every member of ``s``."""
    members = _members_from_operator(h.w, h.povms, s.scenario)
    dev = max(
        float(np.max(np.abs(members[pos].data - s.members[pos].data)))
        for pos in s.scenario.positions()
    )
    return dev <= tol


def verify_ns(s: Assemblage, tol: float = DEFAULT_TOL.abs_tol) -> NsReport:
    """Check every constraint of the full no-signaling family.

    Violation magnitudes are max-abs entry differences, and the deviation
    from one for the trace of each total; see :mod:`.constraints`.
    """
    members = {pos: op.data for pos, op in s.members.items()}
    return evaluate(family(s.scenario, ConstraintMode.FULL_NS), members, tol)


def lhs_assemblage(model: LhsModel, scenario: Scenario) -> Assemblage:
    """Assemble the members generated by a local hidden state model."""
    d = scenario.trusted_dim
    members = {pos: np.zeros((d, d), dtype=complex) for pos in scenario.positions()}
    for q, sigma, tabs in zip(model.weights, model.states, model.tables):
        for a, x in scenario.positions():
            p = 1.0
            for i in range(scenario.n_parties):
                p *= float(np.asarray(tabs[i])[x[i], a[i]])
            if p:
                members[(a, x)] += q * p * sigma.op.data
    return Assemblage(scenario,
                      {pos: Op(scenario.trusted_dims, m) for pos, m in members.items()})


def canonicalize_pure(s: Assemblage, tol: Tolerances = DEFAULT_TOL) -> PureAssemblage:
    """Split each member into (trace weight, principal unit ket) or zero.

    Raises if any member has rank two or more, naming the position.
    """
    members = {}
    for pos in s.scenario.positions():
        op = s.members[pos]
        weight = op.trace().real
        if weight < tol.abs_tol:
            continue
        r = op_rank(op, tol.rank_rel_tol)
        if r > 1:
            raise ValueError(f"member {pos[0]}|{pos[1]} has rank {r} > 1")
        ket = principal_eigenvector(op)
        members[pos] = (weight, Ket(s.scenario.trusted_dims, ket))
    return PureAssemblage(s.scenario, members)


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
    n = scen.n_parties
    shape = scen.outcomes + scen.settings
    positions = sorted(p.members)
    anchors = [j for j, (_, x) in enumerate(positions) if not any(x)]
    if not anchors:
        return np.zeros((0, sum(scen.settings)), dtype=int)
    kets = np.array([p.members[pos][1].data for pos in positions])
    flat = np.ravel_multi_index(tuple(np.array([a + x for a, x in positions]).T), shape)
    allowed = np.zeros((len(anchors), prod(shape)), dtype=bool)
    allowed[:, flat] = np.abs(kets[anchors].conj() @ kets.T) > 1 - tol.abs_tol
    allowed = allowed.reshape((len(anchors),) + shape)
    origin = (0,) * n
    allowed[(slice(None),) * (n + 1) + origin] = False
    for j, anchor in enumerate(anchors):
        allowed[(j,) + positions[anchor][0] + origin] = True
    alive = allowed.reshape(len(anchors), prod(scen.outcomes), -1).any(axis=1).all(axis=1)
    # axes: (partial strategy, assigned settings, a_i, x_i, a_{i+1}, x_{i+1}, ...)
    interleaved = [0] + [1 + axis for i in range(n) for axis in (i, n + i)]
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


def pure_lhs_decide(p: PureAssemblage, tol: Tolerances = DEFAULT_TOL):
    """Exact LHS decision for pure-member assemblages.

    Works over global deterministic strategies.  A strategy that selects a
    zero position must carry weight zero (a vanishing PSD sum forces every
    term to vanish), as must a strategy whose selected kets are not all
    pairwise proportional (its hidden state would have to be proportional
    to two non-proportional pure states).  Only the other strategies are
    enumerated (:func:`consistent_strategies`); they feed a nonnegative
    weight system over the non-zero positions.  Feasibility of that system
    is equivalent to the existence of an LHS model, and any feasible
    weight vector is returned as one.
    """
    scen = p.scenario
    strategies = consistent_strategies(p, tol)
    if not len(strategies):
        return NoLhs("no deterministic strategy selects pairwise proportional "
                     "pure states on its support")

    positions = sorted(p.members)
    rows = np.full(scen.outcomes + scen.settings, -1)
    rows[tuple(np.array([a + x for a, x in positions]).T)] = np.arange(len(positions))
    settings = np.indices(scen.settings).reshape(scen.n_parties, -1)
    offsets = np.cumsum((0,) + scen.settings[:-1])
    outcomes = tuple(strategies[:, o + xs] for o, xs in zip(offsets, settings))
    selected = rows[outcomes + tuple(settings)]  # (strategies, setting vectors)
    a_mat = np.zeros((len(positions), len(strategies)))
    a_mat[selected, np.arange(len(strategies))[:, None]] = 1.0
    b = np.array([p.members[pos][0] for pos in positions])
    x, residual = nnls(a_mat, b)
    if residual >= tol.nnls_residual_tol:
        return NoLhs("nonnegative weight system over deterministic strategies "
                     "is infeasible", residual=residual)

    origin = (0,) * scen.n_parties
    weights, states, tables = [], [], []
    for w, strategy in zip(x, strategies):
        if w <= 0:
            continue
        weights.append(w)
        responses = np.split(strategy, offsets[1:])
        ket = p.members[(tuple(int(f[0]) for f in responses), origin)][1]
        states.append(State(Op(scen.trusted_dims,
                               np.outer(ket.data, ket.data.conj()))))
        tabs = []
        for i, f in enumerate(responses):
            table = np.zeros((scen.settings[i], scen.outcomes[i]))
            table[np.arange(scen.settings[i]), f] = 1.0
            tabs.append(table)
        tables.append(tuple(tabs))
    total = sum(weights)
    weights = [w / total for w in weights]
    return LhsModel(tuple(weights), tuple(states), tuple(tables))
