"""The contraction that realizes assemblages against the per-position loop.

``reference_members`` is the loop the contraction replaced: for every
position, the Kronecker product of the parties' effects with the trusted
identity, a matrix product with the operator, and a partial trace over the
untrusted parties.  Both compute the same sums in another order, so they
agree to rounding: 1e-14 on operators of norm at most one.
"""

from functools import partial, reduce
from math import prod

import numpy as np
import pytest
from conftest import apply_channel_on_subsystems, partial_trace, random_density

from steercert import gallery
from steercert.channels import Povm, choi_of_kraus, random_kraus_channel
from steercert.assemblages import Scenario, assemblage_from_realization, measured_members
from steercert.channel_assemblages import chanasm_from_realization

TOL = 1e-14


def reference_members(w: np.ndarray, dims, povms, scenario: Scenario) -> np.ndarray:
    """The members measured on the array ``w`` on subsystems ``dims``."""
    n = scenario.n_parties
    trusted = np.eye(scenario.trusted_dim)
    members = []
    for a, x in scenario.positions():
        effect = reduce(np.kron, [povms[i].effects[x[i], a[i]] for i in range(n)] + [trusted])
        members.append(partial_trace(effect @ w, dims, keep=range(n, len(dims))))
    return np.array(members)


def reference_channel_members(rho, povms, channel, scenario: Scenario) -> np.ndarray:
    n = scenario.n_parties
    d_out, d_in = scenario.trusted_dims
    v = np.eye(d_in).reshape(-1)  # sum_i |ii>
    joint = np.kron(rho.matrix, np.outer(v, v) / d_in)
    out = apply_channel_on_subsystems(channel, joint, rho.dims + (d_in, d_in),
                                      targets=list(range(n + 1)))
    members = reference_members(out, rho.dims + (d_out, d_in), povms, scenario)
    return (members + members.conj().transpose(0, 2, 1)) / 2


def random_povm(rng, dim: int, settings: int, outcomes: int) -> Povm:
    rows = []
    for _ in range(settings):
        ch = random_kraus_channel(rng, dim, dim, n_kraus=outcomes)
        rows.append([k.conj().T @ k for k in ch.kraus_ops])
    return Povm(dim, rows)


def random_povms(rng, scen: Scenario, dims, extra: int = 0):
    """One POVM per party, ``extra`` settings larger than the scenario."""
    return tuple(random_povm(rng, dim, m + extra, k)
                 for dim, m, k in zip(dims, scen.settings, scen.outcomes))


GRID = [Scenario((m,) * n, (k,) * n, (d,))
        for n, m, k, d in [(1, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 3), (4, 2, 2, 2)]]
GRID.append(Scenario((2, 3, 1), (3, 2, 2), (2,)))  # varies by party


@pytest.mark.parametrize("scen", GRID, ids=lambda s: f"{s.settings}{s.outcomes}{s.trusted_dims}")
def test_contraction_matches_the_per_position_loop(rng, scen):
    local = tuple(max(k, 2) for k in scen.outcomes)
    povms = random_povms(rng, scen, local, extra=1)
    rho = random_density(rng, local + scen.trusted_dims)
    s = assemblage_from_realization(rho, povms, scen)
    reference = reference_members(rho.matrix, rho.dims, povms, scen)
    assert s.members.shape == reference.shape
    assert np.max(np.abs(s.members - reference)) <= TOL
    for pos, member in zip(scen.positions(), reference):
        assert np.max(np.abs(s.member(*pos) - member)) <= TOL


def test_hermitian_realization_matches_the_per_position_loop(rng):
    scen = Scenario((2, 3), (3, 2), (2,))
    local = (3, 2)
    povms = random_povms(rng, scen, local)
    side = 3 * 2 * 2
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    w = (g + g.conj().T) / (2 * side)  # Hermitian, not PSD
    reference = reference_members(w, local + scen.trusted_dims, povms, scen)
    assert np.max(np.abs(measured_members(w, povms, scen) - reference)) <= TOL


def random_channel_realization(untrusted: tuple, d_out: int, d_in: int):
    """A random state and POVMs on the ``untrusted`` parties, and a random
    Kraus channel from them and ``d_in`` to them and ``d_out``."""
    rng = np.random.default_rng(11)
    scen = Scenario((2,) * len(untrusted), (2,) * len(untrusted), (d_out, d_in))
    d_u = prod(untrusted)
    k = random_kraus_channel(rng, d_u * d_in, d_u * d_out, n_kraus=3)
    channel = choi_of_kraus(k, untrusted + (d_in,), untrusted + (d_out,))
    return random_density(rng, untrusted), random_povms(rng, scen, untrusted), channel, scen


@pytest.mark.parametrize("realization", [gallery.bell_cnot_realization,
                                         gallery.tilted_cnot_realization] + [
    pytest.param(partial(random_channel_realization, untrusted, d_out, d_in),
                 id=f"random-{'x'.join(map(str, untrusted))}-out{d_out}-in{d_in}")
    for untrusted, d_out, d_in in [((2,), 3, 2), ((3,), 2, 3), ((2, 3), 2, 3), ((2, 3), 3, 2)]])
def test_channel_realization_matches_the_per_position_loop(realization):
    rho, povms, channel, scen = realization()
    l = chanasm_from_realization(rho, povms, channel, scen)
    reference = reference_channel_members(rho, povms, channel, scen)
    assert np.max(np.abs(l.members - reference)) <= TOL
