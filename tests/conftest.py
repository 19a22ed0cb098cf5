import copy
import importlib.resources as resources
import json
import string
from math import prod

import numpy as np
import pytest
from hypothesis import strategies as st

from steercert import documents
from steercert.core import BUILD_SLACK
from steercert.channels import (ChoiOp, KrausChannel, State, projective_povm, pure_state,
                                verify_cptp)
from steercert.assemblages import (PureAssemblage, Scenario, assemblage_from_realization,
                                   mixture_members)
from steercert.channel_assemblages import ChannelAssemblage

# One line per release criterion, echoed after the test summary so the
# verdicts stay visible even though pytest captures per-test stdout.
acceptance_lines = []


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def random_density(rng: np.random.Generator, dims) -> State:
    dims = tuple(dims)
    d = prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return State(dims, m / np.trace(m))


def random_kraus_channel(rng: np.random.Generator, in_dim: int, out_dim: int,
                         n_kraus: int = None) -> KrausChannel:
    """Haar-ish random channel from a random isometry."""
    if n_kraus is None:
        n_kraus = in_dim * out_dim
    n_kraus = min(n_kraus, in_dim * out_dim)
    if out_dim * n_kraus < in_dim:
        raise ValueError(f"a channel from dimension {in_dim} needs out_dim * n_kraus >= "
                         f"{in_dim}, got {out_dim} * {n_kraus}")
    g = rng.normal(size=(out_dim * n_kraus, in_dim)) \
        + 1j * rng.normal(size=(out_dim * n_kraus, in_dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(in_dim, out_dim, q[:, :in_dim].reshape(n_kraus, out_dim, in_dim))


def partial_trace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace the square array ``a`` on subsystems ``dims`` over all those
    not in ``keep``; kept order is preserved.

    ``keep`` may be any iterable of subsystem indices; keeping everything
    returns the input unchanged.
    """
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"subsystem index out of range for {n} subsystems")
    if len(keep) == n:
        return a
    letters = string.ascii_lowercase
    if 2 * n > len(letters):
        raise ValueError("too many subsystems")
    row = list(letters[:n])
    col = [letters[n + k] if k in keep else letters[k] for k in range(n)]
    out = [row[k] for k in keep] + [col[k] for k in keep]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), a.reshape(dims + dims))
    side = prod(dims[k] for k in keep)
    return reduced.reshape(side, side)


def apply_channel_on_subsystems(c: ChoiOp, rho: np.ndarray, dims, targets) -> np.ndarray:
    """Apply ``c`` on the listed subsystems of the array ``rho`` on ``dims``,
    identity elsewhere.

    The result's subsystems are ``c.out_dims`` first, followed by the
    spectator subsystems in their original relative order.
    """
    dims, targets = tuple(dims), [int(t) for t in targets]
    n = len(dims)
    if sorted(set(targets)) != sorted(targets) or any(t < 0 or t >= n for t in targets):
        raise IndexError("invalid target subsystem list")
    if tuple(dims[t] for t in targets) != c.in_dims:
        raise ValueError("target dims do not match the channel input")
    spectators = [k for k in range(n) if k not in targets]
    perm = targets + spectators
    tensor = np.transpose(rho.reshape(dims + dims), perm + [n + p for p in perm])
    di, do = c.in_dim, c.out_dim
    ds = prod(dims[k] for k in spectators)
    block = tensor.reshape(di, ds, di, ds)
    j = c.matrix.reshape(do, di, do, di)  # J[o, m, y, n]: row (o, m), column (y, n)
    out = di * np.einsum("omyn,mrns->orys", j, block)
    return out.reshape(do * ds, do * ds)


def local_channel_assemblage(tables, maps, scenario: Scenario) -> ChannelAssemblage:
    """Members ``sum_j prod_i p_j(a_i|x_i) L_j`` from CP maps with CPTP total.

    ``tables[i]`` is party ``i``'s ``(h, settings, outcomes)`` array of
    response tables, ``tables[i][j]`` its table under hidden variable ``j``;
    ``maps[j]`` is the matching CP map, a :class:`ChoiOp`.
    """
    d_out, d_in = scenario.trusted_dims
    total = ChoiOp((d_in,), (d_out,), sum(c.matrix for c in maps))
    if not verify_cptp(total, BUILD_SLACK).ok:
        raise ValueError("sum of the CP maps must be a channel")
    return ChannelAssemblage(scenario, mixture_members(
        tables, [c.matrix for c in maps], scenario))


def haar_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pure_realization(rng, n, m, k, d, entangled=True):
    """Projective measurements in Haar-random bases on a pure state."""
    if entangled:
        psi = haar_unitary(rng, k ** n * d)[:, 0]
    else:
        psi = haar_unitary(rng, d)[:, 0]
        for _ in range(n):
            psi = np.kron(haar_unitary(rng, k)[:, 0], psi)
    povms = tuple(
        projective_povm([[u[:, a] for a in range(k)]
                         for u in (haar_unitary(rng, k) for _ in range(m))])
        for _ in range(n))
    scen = Scenario((m,) * n, (k,) * n, (d,))
    return assemblage_from_realization(pure_state((k,) * n + (d,), psi),
                                       povms, scen)


def product_realization(rng, n, m, k, d) -> documents.Realization:
    """A product pure state, measured in Haar-random projective bases."""
    psi = haar_unitary(rng, d)[:, 0]
    for _ in range(n):
        psi = np.kron(haar_unitary(rng, k)[:, 0], psi)
    povms = tuple(projective_povm([haar_unitary(rng, k).T for _ in range(m)])
                  for _ in range(n))
    return documents.Realization(Scenario((m,) * n, (k,) * n, (d,)),
                                 pure_state((k,) * n + (d,), psi), povms)


def pure_assemblage(scenario, members: dict):
    """A ``PureAssemblage`` from ``{(a, x): (weight, unit ket)}``; positions
    left out are zero."""
    support = tuple(sorted(members))
    d = scenario.trusted_dim
    return PureAssemblage(scenario, support,
                          np.array([members[pos][0] for pos in support]),
                          np.array([members[pos][1] for pos in support]).reshape(-1, d))


def shared_ket_local_box(rng, scenario):
    """One Haar-random ket at every position, weighted by a box that is local
    but not a product: half a product of random per-party boxes, half one
    random deterministic strategy.  Every strategy selects that one ket, so
    they form a product set while the box does not factor."""
    boxes = [rng.dirichlet(np.ones(k), size=m)
             for m, k in zip(scenario.settings, scenario.outcomes)]
    responses = [rng.integers(k, size=m) for m, k in zip(scenario.settings, scenario.outcomes)]
    ket = haar_unitary(rng, scenario.trusted_dim)[:, 0]
    members = {}
    for a, x in scenario.positions():
        product = prod(box[xi, ai] for box, ai, xi in zip(boxes, a, x))
        chosen = all(f[xi] == ai for f, ai, xi in zip(responses, a, x))
        members[(a, x)] = (product / 2 + chosen / 2, ket)
    return pure_assemblage(scenario, members)


def pure_members(p) -> dict:
    """``{(a, x): (weight, unit ket)}`` over the support of ``p``."""
    return {pos: (weight, ket) for pos, weight, ket in zip(p.support, p.weights, p.kets)}


# --- mutated documents ------------------------------------------------------
# The bundled fixtures and a small generated assemblage, with keys dropped,
# rows made ragged, wrong values written in, pairs widened, a negative
# diagonal entry, or a member moved outside the scenario.

def _generated_assemblage() -> dict:
    scen = Scenario((2, 2), (2, 2), (2,))
    ket = np.zeros(8, dtype=complex)
    ket[[0, 7]] = 1 / np.sqrt(2)  # GHZ
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    povm = projective_povm([[np.array([1, 0]), np.array([0, 1])], [plus, minus]])
    s = assemblage_from_realization(pure_state((2, 2, 2), ket), (povm, povm), scen)
    return documents.serialize(s)


def _fixtures() -> list:
    data = resources.files("steercert").joinpath("data")
    names = ("appendix.json", "example1.json", "example1_channel_assemblage.json")
    return [json.loads(data.joinpath(name).read_text()) for name in names]


BASES = _fixtures() + [_generated_assemblage()]


def _nodes(node):
    yield node
    children = node.values() if isinstance(node, dict) else node \
        if isinstance(node, list) else ()
    for child in children:
        yield from _nodes(child)


def _walk(draw, doc):
    """A node reached by descending from the root while a coin says so,
    so that the structure near the root is picked as often as the leaves."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = node[key]
    return parent, key, node


def _pairs(doc):
    """Complex entries ``[re, im]`` and two-party index vectors."""
    return [node for node in _nodes(doc) if isinstance(node, list) and len(node) == 2
            and all(isinstance(v, (int, float)) for v in node)]


def _square_matrices(doc):
    return [node for node in _nodes(doc) if isinstance(node, list) and node
            and all(isinstance(row, list) and len(row) == len(node) for row in node)
            and all(_pairs(row) == row for row in node)]


def _entries(doc):
    return [node for node in _nodes(doc) if isinstance(node, dict) and "a" in node]


@st.composite
def mutated(draw, wrong):
    """A copy of one of ``BASES`` after one to three mutations; ``wrong`` is a
    strategy for the values written where another belongs."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "ragged", "replace", "entry", "widen",
                                     "diagonal", "outside"]))
        parent, key, node = _walk(draw, doc)
        if kind == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "ragged" and isinstance(node, list) and node:
            node.pop()
        elif kind == "replace" and parent is not None:
            parent[key] = copy.deepcopy(draw(wrong))
        elif kind == "entry" and _pairs(doc):
            draw(st.sampled_from(_pairs(doc)))[draw(st.integers(0, 1))] = \
                copy.deepcopy(draw(wrong))
        elif kind == "widen" and _pairs(doc):  # a three-element "pair"
            draw(st.sampled_from(_pairs(doc))).append(0)
        elif kind == "diagonal" and _square_matrices(doc):
            matrix = draw(st.sampled_from(_square_matrices(doc)))
            i = draw(st.integers(0, len(matrix) - 1))
            matrix[i][i] = [draw(st.sampled_from([-1e-7, -0.1, -1.0])), 0.0]
        elif kind == "outside" and _entries(doc):
            entry = draw(st.sampled_from(_entries(doc)))
            axis = draw(st.sampled_from(["a", "x"]))
            if isinstance(entry.get(axis), list):
                entry[axis] = entry[axis] + [0] if draw(st.booleans()) else \
                    [v + 2 if isinstance(v, int) else v for v in entry[axis]]
    return doc
