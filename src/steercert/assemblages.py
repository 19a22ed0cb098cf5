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
        mem = {}
        for x in self.scenario.setting_vectors():
            total = 0.0
            for a in self.scenario.outcome_vectors():
                op = self.members[(a, x)]
                if op.dims != self.scenario.trusted_dims:
                    op = Op(self.scenario.trusted_dims, op.data)
                if not is_psd(op, 1e-8):
                    raise ValueError(f"member {a}|{x} is not PSD")
                total += op.trace().real
                mem[(a, x)] = op
            if abs(total - 1) > 1e-8:
                raise ValueError(f"member traces at settings {x} sum to {total}, not 1")
        object.__setattr__(self, "members", mem)

    def member(self, a, x) -> Op:
        return self.members[(tuple(a), tuple(x))]


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per party, a deterministic map from setting to outcome."""

    responses: tuple  # responses[i][x_i] = a_i

    def select(self, x) -> tuple:
        return tuple(self.responses[i][xi] for i, xi in enumerate(x))


def deterministic_strategies(scenario: Scenario):
    """All global deterministic strategies of the scenario."""
    per_party = []
    for m, k in zip(scenario.settings, scenario.outcomes):
        per_party.append([tuple(f) for f in itertools.product(range(k), repeat=m)])
    for combo in itertools.product(*per_party):
        yield DeterministicStrategy(tuple(combo))


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


def pure_lhs_decide(p: PureAssemblage, tol: Tolerances = DEFAULT_TOL):
    """Exact LHS decision for pure-member assemblages.

    Enumerates global deterministic strategies.  A strategy that selects a
    zero position must carry weight zero (a vanishing PSD sum forces every
    term to vanish), as must a strategy whose selected kets are not all
    pairwise proportional (its hidden state would have to be proportional
    to two non-proportional pure states).  The surviving strategies feed a
    nonnegative weight system over the non-zero positions; feasibility of
    that system is equivalent to the existence of an LHS model, and any
    feasible weight vector is returned as one.
    """
    scen = p.scenario
    setting_list = list(scen.setting_vectors())
    consistent = []
    for strat in deterministic_strategies(scen):
        selected = [(strat.select(x), x) for x in setting_list]
        entries = [p.members.get(pos) for pos in selected]
        if any(e is None for e in entries):
            continue
        kets = [e[1] for e in entries]
        ref = kets[0]
        if all(abs(np.vdot(ref.data, k.data)) > 1 - tol.abs_tol for k in kets[1:]):
            consistent.append((strat, ref, selected))
    if not consistent:
        return NoLhs("no deterministic strategy selects pairwise proportional "
                     "pure states on its support")

    positions = sorted(p.members)
    row_of = {pos: r for r, pos in enumerate(positions)}
    a_mat = np.zeros((len(positions), len(consistent)))
    b = np.array([p.members[pos][0] for pos in positions])
    for j, (_, _, selected) in enumerate(consistent):
        for pos in selected:
            a_mat[row_of[pos], j] = 1.0
    x, residual = nnls(a_mat, b)
    if residual >= tol.nnls_residual_tol:
        return NoLhs("nonnegative weight system over deterministic strategies "
                     "is infeasible", residual=residual)

    weights, states, tables = [], [], []
    for w, (strat, ket, _) in zip(x, consistent):
        if w <= 0:
            continue
        weights.append(w)
        states.append(State(Op(scen.trusted_dims,
                               np.outer(ket.data, ket.data.conj()))))
        tabs = []
        for i in range(scen.n_parties):
            table = np.zeros((scen.settings[i], scen.outcomes[i]))
            for xi in range(scen.settings[i]):
                table[xi, strat.responses[i][xi]] = 1.0
            tabs.append(table)
        tables.append(tuple(tabs))
    total = sum(weights)
    weights = [w / total for w in weights]
    return LhsModel(tuple(weights), tuple(states), tuple(tables))
