from math import prod

import numpy as np
import pytest

from steercert.core import Op, kron
from steercert.channels import State
from steercert.assemblages import PureAssemblage

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
    return State(Op(dims, m / np.trace(m)))


def identity(dims) -> Op:
    dims = tuple(dims)
    return Op(dims, np.eye(prod(dims), dtype=complex))


def kron_all(ops) -> Op:
    ops = list(ops)
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


def pure_assemblage(scenario, members: dict):
    """A ``PureAssemblage`` from ``{(a, x): (weight, unit ket)}``; positions
    left out are zero."""
    support = tuple(sorted(members))
    d = scenario.trusted_dim
    return PureAssemblage(scenario, support,
                          np.array([members[pos][0] for pos in support]),
                          np.array([members[pos][1] for pos in support]).reshape(-1, d))


def pure_members(p) -> dict:
    """``{(a, x): (weight, unit ket)}`` over the support of ``p``."""
    return {pos: (weight, ket) for pos, weight, ket in zip(p.support, p.weights, p.kets)}
