"""Mutated documents never crash the CLI.

Hypothesis mutates the bundled fixtures and a small generated assemblage:
it drops keys, makes rows ragged, writes ``NaN``/``Infinity``, ``true``
where an integer belongs or another wrong value, puts a negative number on
a member's diagonal, or moves a member outside the scenario.  Every command
that reads a document must answer with an exit code of 0, 1, 2 or 3 and
raise nothing.
"""

import contextlib
import copy
import importlib.resources as resources
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from steercert import cli, documents
from steercert.assemblages import Scenario, assemblage_from_realization
from steercert.channels import projective_povm, pure_state
from steercert.core import Ket


def _generated_assemblage() -> dict:
    scen = Scenario((2, 2), (2, 2), (2,))
    ket = np.zeros(8, dtype=complex)
    ket[[0, 7]] = 1 / np.sqrt(2)  # GHZ
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    povm = projective_povm([[np.array([1, 0]), np.array([0, 1])], [plus, minus]])
    s = assemblage_from_realization(pure_state(Ket((2, 2, 2), ket)), (povm, povm), scen)
    return documents.serialize(s)


def _fixtures() -> list:
    data = resources.files("steercert").joinpath("data")
    names = ("appendix.json", "example1.json", "example1_channel_assemblage.json")
    return [json.loads(data.joinpath(name).read_text()) for name in names]


BASES = _fixtures() + [_generated_assemblage()]
COMMANDS = (("verify",), ("verify", "--mode", "asym-ns"), ("extremality",),
            ("extremality", "--mode", "asym"), ("lhs",), ("security-cert",))
WRONG = st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, None,
                         "x", -1, 0, 1, 3, 2 ** 70, 10 ** 400, 1.5, [], {},
                         [[1, 0]]])


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
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "ragged", "replace", "entry", "diagonal",
                                     "outside"]))
        parent, key, node = _walk(draw, doc)
        if kind == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "ragged" and isinstance(node, list) and node:
            node.pop()
        elif kind == "replace" and parent is not None:
            parent[key] = copy.deepcopy(draw(WRONG))
        elif kind == "entry" and _pairs(doc):
            draw(st.sampled_from(_pairs(doc)))[draw(st.integers(0, 1))] = \
                copy.deepcopy(draw(WRONG))
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


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(), command=st.sampled_from(COMMANDS))
def test_cli_answers_every_mutated_document(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--output", "json", *command, str(path)])
    assert code in (0, 1, 2, 3)
