"""The exact LHS decision against the brute-force strategy walk.

``pure_lhs_decide`` enumerates only the deterministic strategies that can
carry weight (:func:`consistent_strategies`).  The walk over every
strategy that it replaced is kept here as the reference: on a seeded grid
of scenarios both must give bitwise the same strategies in the same order.
The walk solves the weight system over every support position;
``pure_lhs_decide`` solves it in no-signaling coordinates, or splits each
party's marginal box in closed form when their product fits the box, so
its weights may land elsewhere on a degenerate solution set.  Its verdict
must have the walk's type, and either a model that rebuilds the
assemblage or the walk's reason and residual.
"""

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np
import pytest
from conftest import haar_unitary, pure_assemblage, pure_members, shared_ket_local_box
from hypothesis import given, settings, strategies as st

from steercert import assemblages
from steercert.core import DEFAULT_TOL, Tolerances, nnls
from steercert.channels import pure_state
from steercert.assemblages import (
    LhsModel,
    NoLhs,
    PureAssemblage,
    Scenario,
    canonicalize_pure,
    consistent_strategies,
    lhs_assemblage,
    pure_lhs_decide,
    quantile_coupling,
)


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


def brute_force_decide(p: PureAssemblage, tol=DEFAULT_TOL):
    """Walk every deterministic strategy; return the consistent ones (as
    flat response lists) and the verdict."""
    scen = p.scenario
    members = pure_members(p)
    setting_list = list(scen.setting_vectors())
    consistent = []
    for strat in deterministic_strategies(scen):
        selected = [(strat.select(x), x) for x in setting_list]
        entries = [members.get(pos) for pos in selected]
        if any(e is None for e in entries):
            continue
        kets = [e[1] for e in entries]
        ref = kets[0]
        if all(abs(np.vdot(ref, k)) > 1 - tol.abs_tol for k in kets[1:]):
            consistent.append((strat, ref, selected))
    flat = [[a for f in strat.responses for a in f] for strat, _, _ in consistent]
    if not consistent:
        return flat, NoLhs("no deterministic strategy selects pairwise proportional "
                           "pure states on its support")

    positions = sorted(members)
    row_of = {pos: r for r, pos in enumerate(positions)}
    a_mat = np.zeros((len(positions), len(consistent)))
    b = np.array([members[pos][0] for pos in positions])
    for j, (_, _, selected) in enumerate(consistent):
        for pos in selected:
            a_mat[row_of[pos], j] = 1.0
    x, residual = nnls(a_mat, b)
    if residual >= tol.nnls_residual_tol:
        return flat, NoLhs("nonnegative weight system over deterministic strategies "
                           "is infeasible", residual=residual)

    weights, states = [], []
    tables = [[] for _ in range(scen.n_parties)]
    for w, (strat, ket, _) in zip(x, consistent):
        if w <= 0:
            continue
        weights.append(w)
        states.append(np.outer(ket, ket.conj()))
        for i in range(scen.n_parties):
            table = np.zeros((scen.settings[i], scen.outcomes[i]))
            for xi in range(scen.settings[i]):
                table[xi, strat.responses[i][xi]] = 1.0
            tables[i].append(table)
    total = sum(weights)
    weights = [w / total for w in weights]
    return flat, LhsModel(np.array(weights), np.array(states),
                          tuple(np.array(t) for t in tables))


def haar_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def realized_pure(rng, scen: Scenario, psi) -> PureAssemblage:
    """Measure each party of ``psi`` (on k^n * d) in Haar-random bases and
    keep each conditional trusted ket as (weight, unit ket)."""
    n, d = scen.n_parties, scen.trusted_dim
    bases = [[haar_unitary(rng, k) for _ in range(m)]
             for m, k in zip(scen.settings, scen.outcomes)]
    tensor = psi.reshape(scen.outcomes + (d,))
    members = {}
    for x in scen.setting_vectors():
        t = tensor
        for i in range(n):
            t = np.moveaxis(np.tensordot(t, bases[i][x[i]].conj(), axes=([i], [0])), -1, i)
        for a in scen.outcome_vectors():
            v = t[a]
            weight = float(np.vdot(v, v).real)
            members[(a, x)] = (weight, v / np.sqrt(weight))
    return pure_assemblage(scen, members)


def hidden_variable_model(rng, scen: Scenario, h: int) -> LhsModel:
    """``h`` deterministic hidden variables with Haar-random trusted states.

    At every party and setting the hidden variables give distinct outcomes,
    so no position mixes two of them and every member stays pure.
    """
    picks = [[rng.permutation(k)[:h] for _ in range(m)]
             for m, k in zip(scen.settings, scen.outcomes)]
    tables = []
    for i, (m, k) in enumerate(zip(scen.settings, scen.outcomes)):
        table = np.zeros((h, m, k))
        for x in range(m):
            table[np.arange(h), x, picks[i][x]] = 1.0
        tables.append(table)
    states = np.array([pure_state(scen.trusted_dims, haar_ket(rng, scen.trusted_dim)).matrix
                       for _ in range(h)])
    return LhsModel(rng.dirichlet(np.ones(h)), states, tuple(tables))


def build(form, rng, settings, outcomes, d) -> PureAssemblage:
    scen = Scenario(settings, outcomes, (d,))
    if form == "entangled":
        return realized_pure(rng, scen, haar_ket(rng, prod(outcomes) * d))
    if form in ("product", "zeroed"):
        psi = haar_ket(rng, d)
        for k in reversed(outcomes):
            psi = np.kron(haar_ket(rng, k), psi)
        p = realized_pure(rng, scen, psi)
        if form == "product":
            return p
        # drop some anchors (positions at x=(0,...,0)) and a few others
        positions = p.support
        anchors = [pos for pos in positions if not any(pos[1])]
        dropped = {anchors[j] for j in rng.choice(len(anchors), len(anchors) // 2,
                                                  replace=False)}
        dropped |= {positions[j] for j in rng.choice(len(positions), 2, replace=False)}
        members = {pos: e for pos, e in pure_members(p).items() if pos not in dropped}
        return pure_assemblage(scen, members)
    if form == "shared-ket":
        return shared_ket_local_box(rng, scen)
    assert form == "mixture"
    model = hidden_variable_model(rng, scen, min(min(outcomes), 3))
    return canonicalize_pure(lhs_assemblage(model, scen))


def pr_box_like(n: int) -> PureAssemblage:
    """n parties, two settings and two outcomes each, a trivial trusted
    system: outcomes whose parity is the AND of the settings, uniformly.
    No-signaling, and outside the local polytope."""
    scen = Scenario((2,) * n, (2,) * n, (1,))
    members = {(a, x): (2.0 ** (1 - n), np.array([1.0])) for a, x in scen.positions()
               if sum(a) % 2 == int(all(x))}
    return pure_assemblage(scen, members)


def rebuild_error(p: PureAssemblage, model: LhsModel) -> float:
    """Largest entry of |members of the model - members of ``p``|."""
    scen = p.scenario
    members = np.zeros((len(list(scen.positions())), scen.trusted_dim, scen.trusted_dim),
                       dtype=complex)
    members[scen.indices(p.support)] = (p.weights[:, None, None] * p.kets[:, :, None]
                                        * p.kets[:, None, :].conj())
    return float(np.abs(lhs_assemblage(model, scen).members - members).max())


def assert_same_verdict(p: PureAssemblage, got, want):
    """``got`` has ``want``'s type.  A model rebuilds the members of ``p``
    within 1e-12 of the walk's model (which is exact up to rounding unless
    ``abs_tol`` merges kets that are not exactly proportional); a ``NoLhs``
    has ``want``'s reason and its residual within 1e-12 (relative)."""
    assert type(got) is type(want)
    if isinstance(want, NoLhs):
        assert got.reason == want.reason
        assert (got.residual is None) == (want.residual is None)
        if want.residual is not None:
            assert got.residual == pytest.approx(want.residual, rel=1e-12, abs=0)
        return
    assert rebuild_error(p, got) <= rebuild_error(p, want) + 1e-12


# (settings, outcomes, d): the uniform (n, m, k, d) scenarios with
# (k^m)^n <= 2e4, then two with settings and outcomes varying by party
GRID = [((m,) * n, (k,) * n, d) for n, m, k, d in
        [(1, 3, 3, 2), (2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2), (2, 3, 3, 2),
         (3, 2, 2, 2), (3, 3, 2, 2), (3, 2, 3, 2), (4, 2, 2, 2), (2, 2, 2, 3)]]
GRID += [((2, 3), (3, 2), 2), ((1, 2, 3), (3, 2, 2), 2)]
FORMS = ["entangled", "product", "mixture", "zeroed", "shared-ket"]


def test_deterministic_strategy_count():
    scen = Scenario((2, 2), (2, 2), (2,))
    strategies = list(deterministic_strategies(scen))
    assert len(strategies) == 16
    assert strategies[0].select((0, 1)) in {(a, b) for a in range(2) for b in range(2)}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("settings,outcomes,d", GRID, ids=[
    f"m{''.join(map(str, s))}-k{''.join(map(str, o))}-d{d}" for s, o, d in GRID])
def test_matches_brute_force(monkeypatch, settings, outcomes, d, form):
    rng = np.random.default_rng([*settings, *outcomes, d, FORMS.index(form)])
    p = build(form, rng, settings, outcomes, d)
    want_strategies, want = brute_force_decide(p)
    assert consistent_strategies(p).tolist() == want_strategies
    rows, solve = [], assemblages.nnls
    monkeypatch.setattr(assemblages, "nnls", lambda a, b: rows.append(len(a)) or solve(a, b))
    got = pure_lhs_decide(p)
    assert_same_verdict(p, got, want)
    joint = prod(m * (k - 1) + 1 for m, k in zip(settings, outcomes))
    if form == "entangled":
        assert isinstance(got, NoLhs) and got.residual is None
    elif form == "product":
        # a product box is its own product of marginals: the closed-form
        # candidate fits it, and no solver runs
        assert isinstance(got, LhsModel) and rows == []
        assert len(got.weights) <= joint
    elif form == "mixture":
        assert isinstance(got, LhsModel)
    elif form == "shared-ket":
        # every strategy is consistent, so they form a product set.  One
        # party's box is always its own coupling, so no solver runs; with
        # two or more parties the per-party candidate misses the box, which
        # does not factor, and the one solve is the joint system's
        assert isinstance(got, LhsModel)
        assert len(want_strategies) == prod(k ** m for m, k in zip(settings, outcomes))
        assert rows == ([joint] if len(settings) > 1 else [])
        if len(settings) == 1:
            assert len(got.weights) <= joint
    else:
        assert any(not any(x) for _, x in p.support)
        assert len(p.support) < len(list(p.scenario.positions()))


@pytest.mark.parametrize("n", [2, 3])
def test_pr_box_like_matches_brute_force(n):
    p = pr_box_like(n)
    want_strategies, want = brute_force_decide(p)
    assert consistent_strategies(p).tolist() == want_strategies
    got = pure_lhs_decide(p)
    assert_same_verdict(p, got, want)
    assert isinstance(got, NoLhs)


def test_overlap_threshold_follows_abs_tol():
    # one ket of a product assemblage is turned by 1e-3 rad, so its overlap
    # with every anchor is 1 - 5e-7: not proportional at abs_tol 1e-9,
    # proportional at 1e-5
    p = build("product", np.random.default_rng(7), (2, 2), (2, 2), 2)
    pos = ((1, 0), (1, 1))
    weight, ket = pure_members(p)[pos]
    other = np.array([-ket[1].conj(), ket[0].conj()])
    turned = np.cos(1e-3) * ket + np.sin(1e-3) * other
    p = pure_assemblage(p.scenario, {**pure_members(p), pos: (weight, turned)})
    counts = []
    for tol in (DEFAULT_TOL, Tolerances(abs_tol=1e-5)):
        want_strategies, want = brute_force_decide(p, tol)
        assert consistent_strategies(p, tol).tolist() == want_strategies
        assert_same_verdict(p, pure_lhs_decide(p, tol), want)
        counts.append(len(want_strategies))
    assert counts == [12, 16]


def test_entangled_beyond_brute_force_has_no_lhs_model():
    # (k^m)^n = 16.7 M strategies: out of reach of the walk
    rng = np.random.default_rng(344)
    p = build("entangled", rng, (4,) * 3, (4,) * 3, 2)
    assert len(consistent_strategies(p)) == 0
    verdict = pure_lhs_decide(p)
    assert isinstance(verdict, NoLhs)
    assert verdict.residual is None


def test_hidden_variable_model_beyond_brute_force_is_recovered():
    rng = np.random.default_rng(3442)
    scen = Scenario((4,) * 3, (4,) * 3, (2,))
    s = lhs_assemblage(hidden_variable_model(rng, scen, 3), scen)
    verdict = pure_lhs_decide(canonicalize_pure(s))
    assert isinstance(verdict, LhsModel)
    assert len(verdict.weights) == 3
    rebuilt = lhs_assemblage(verdict, scen)
    for pos in scen.positions():
        np.testing.assert_allclose(rebuilt.member(*pos), s.member(*pos),
                                   atol=1e-9)



def test_tables_too_long_for_an_int64_code_are_solved_jointly():
    # 64 two-outcome settings: a response table's mixed-radix code would
    # overflow int64, so the per-party candidate is skipped, not attempted
    rng = np.random.default_rng(64)
    scen = Scenario((64,), (2,), (2,))
    p = canonicalize_pure(lhs_assemblage(hidden_variable_model(rng, scen, 2), scen))
    verdict = pure_lhs_decide(p)
    assert isinstance(verdict, LhsModel)
    assert rebuild_error(p, verdict) <= 1e-12


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(2, 5), st.floats(0.01, 100))
def test_quantile_coupling_reproduces_the_box(data, m, k, total):
    entry = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    raw = np.array(data.draw(st.lists(
        st.lists(entry, min_size=k, max_size=k).filter(any), min_size=m, max_size=m)))
    box = total * raw / raw.sum(axis=1, keepdims=True)
    tables, weights = quantile_coupling(box)
    assert tables.shape == (len(weights), m)
    assert ((tables >= 0) & (tables < k)).all()
    assert len(weights) <= m * (k - 1) + 1
    assert (weights >= 0).all()
    assert weights.sum() == pytest.approx(total, rel=1e-14, abs=0)
    marginals = np.tensordot(weights, np.eye(k)[tables], axes=1)
    assert np.abs(marginals - box).max() <= 1e-14 * total


def test_coupling_outside_the_consistent_tables_reaches_the_joint_solve(monkeypatch):
    # party 0's ket is |a_0 XOR x_0>, so its consistent tables are (0, 1)
    # and (1, 0); party 1 answers its own box on either ket.  The strategies
    # are a product set, but party 0's uniform marginal couples into (0, 0)
    # and (1, 1), so the candidate is dropped and the joint system decides
    scen = Scenario((2, 2), (2, 2), (2,))
    box = np.array([[0.3, 0.7], [0.6, 0.4]])
    p = pure_assemblage(scen, {(a, x): (box[x[1], a[1]] / 2, np.eye(2)[a[0] ^ x[0]])
                               for a, x in scen.positions()})
    assert quantile_coupling(np.full((2, 2), 0.5))[0].tolist() == [[0, 0], [1, 1]]
    want_strategies, want = brute_force_decide(p)
    strategies = consistent_strategies(p)
    assert strategies.tolist() == want_strategies and len(strategies) == 2 * 4
    assert sorted({tuple(f) for f in strategies[:, :2].tolist()}) == [(0, 1), (1, 0)]
    rows, solve = [], assemblages.nnls
    monkeypatch.setattr(assemblages, "nnls", lambda a, b: rows.append(len(a)) or solve(a, b))
    got = pure_lhs_decide(p)
    assert_same_verdict(p, got, want)
    assert isinstance(got, LhsModel) and rows == [3 * 3]
