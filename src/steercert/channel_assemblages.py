"""Channel assemblages and their verification in Choi space.

A channel assemblage collects completely positive maps, indexed like a
state assemblage, whose totals form a fixed channel.  All verification
here happens on the Choi matrices: a family of CP maps is a no-signaling
channel assemblage exactly when its Choi matrices form a no-signaling
state assemblage whose total partially traces (over the output factor) to
the maximally mixed input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Op, identity, is_psd, kron, partial_trace
from .channels import (
    ChoiOp,
    State,
    apply_channel_on_subsystems,
    maximally_entangled,
    verify_cptp,
)
from .assemblages import Assemblage, Scenario
from .constraints import (
    ConstraintMode,
    Family,
    NsReport,
    evaluate,
    family,
    magnitudes,
    output_trace_condition,
)


@dataclass(frozen=True)
class ChannelAssemblage:
    """CP maps (as Choi matrices) indexed by (outcome vector, setting vector)."""

    scenario: Scenario  # trusted_dims = (d_out, d_in)
    members: dict = field(repr=False)  # (a, x) -> ChoiOp

    def __post_init__(self):
        if len(self.scenario.trusted_dims) != 2:
            raise ValueError("scenario trusted_dims must be (d_out, d_in)")
        for pos in self.scenario.positions():
            c = self.members[pos]
            if c.op.dims != self.scenario.trusted_dims:
                raise ValueError(f"member {pos} has wrong Choi dims")
            if not is_psd(c.op, 1e-8):
                raise ValueError(f"member {pos} is not completely positive")

    @property
    def d_in(self) -> int:
        return self.scenario.trusted_dims[1]

    @property
    def d_out(self) -> int:
        return self.scenario.trusted_dims[0]

    def member(self, a, x) -> ChoiOp:
        return self.members[(tuple(a), tuple(x))]


@dataclass(frozen=True)
class NsChannelReport:
    assemblage_report: NsReport
    trace_condition_deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.assemblage_report.ok and self.trace_condition_deviation <= self.tol


def chanasm_from_realization(rho_untrusted: State, povms, channel: ChoiOp,
                             scenario: Scenario) -> ChannelAssemblage:
    """Build the channel assemblage of an explicit quantum realization.

    ``channel`` maps the untrusted parties together with the trusted input
    to the untrusted parties and the trusted output.  The construction
    routes one half of a maximally entangled pair through the interaction
    and measures the untrusted parties, leaving each member's Choi matrix
    on ``(d_out, d_in)``.
    """
    n = scenario.n_parties
    d_out, d_in = scenario.trusted_dims
    if not verify_cptp(channel, 1e-8).ok:
        raise ValueError("realization channel must be CPTP")
    untrusted_dims = rho_untrusted.dims
    if channel.in_dims != untrusted_dims + (d_in,):
        raise ValueError("channel input dims must be untrusted dims + (d_in,)")
    if channel.out_dims != untrusted_dims + (d_out,):
        raise ValueError("channel output dims must be untrusted dims + (d_out,)")

    phi = maximally_entangled(d_in).outer()  # dims (d_in, d_in)
    joint = kron(rho_untrusted.op, phi)
    # Channel acts on the untrusted parties and the first trusted factor;
    # the second half of the entangled pair is a spectator and lands last.
    rho = apply_channel_on_subsystems(channel, joint, targets=list(range(n + 1)))
    state = State(Op(untrusted_dims + (d_out, d_in), rho.data))

    trusted = identity((d_out, d_in))
    members = {}
    for a, x in scenario.positions():
        effect = povms[0].effects[x[0]][a[0]]
        acc = effect
        for i in range(1, n):
            acc = kron(acc, povms[i].effects[x[i]][a[i]])
        acc = kron(acc, trusted)
        big = Op(state.op.dims, acc.data @ state.op.data)
        reduced = partial_trace(big, keep=range(n, n + 2))
        herm = Op((d_out, d_in), (reduced.data + reduced.data.conj().T) / 2)
        members[(a, x)] = ChoiOp((d_in,), (d_out,), herm)
    return ChannelAssemblage(scenario, members)


def to_choi_assemblage(l: ChannelAssemblage) -> Assemblage:
    """Reinterpret the Choi matrices as a state assemblage on out (x) in."""
    members = {pos: l.members[pos].op for pos in l.scenario.positions()}
    return Assemblage(l.scenario, members)


def _choi_members(l: ChannelAssemblage) -> dict:
    return {pos: c.op.data for pos, c in l.members.items()}


def verify_ns_channel(l: ChannelAssemblage,
                      tol: float = DEFAULT_TOL.abs_tol) -> NsChannelReport:
    """No-signaling verification plus the channel trace condition.

    Passes iff the Choi matrices satisfy the full no-signaling family and
    the total's partial trace over the output factor is ``1/d_in``.
    """
    members = _choi_members(l)
    report = evaluate(family(l.scenario, ConstraintMode.FULL_NS), members, tol)
    condition = Family(l.scenario, (output_trace_condition(l.scenario),))
    return NsChannelReport(report, float(magnitudes(condition, members)[0]), tol)


def local_channel_assemblage(tables, maps, scenario: Scenario) -> ChannelAssemblage:
    """Members ``sum_j prod_i p_j(a_i|x_i) L_j`` from CP maps with CPTP total.

    ``tables[j][i]`` is the (settings x outcomes) response table of party
    ``i`` under hidden variable ``j``; ``maps[j]`` the matching CP map.
    """
    d_out, d_in = scenario.trusted_dims
    total = sum(c.op.data for c in maps)
    total_choi = ChoiOp((d_in,), (d_out,), Op((d_out, d_in), total))
    if not verify_cptp(total_choi, 1e-8).ok:
        raise ValueError("sum of the CP maps must be a channel")
    members = {}
    for a, x in scenario.positions():
        acc = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
        for tabs, c in zip(tables, maps):
            p = 1.0
            for i in range(scenario.n_parties):
                p *= float(np.asarray(tabs[i])[x[i], a[i]])
            if p:
                acc += p * c.op.data
        members[(a, x)] = ChoiOp((d_in,), (d_out,), Op((d_out, d_in), acc))
    return ChannelAssemblage(scenario, members)


def verify_asym_ns(l: ChannelAssemblage,
                   tol: float = DEFAULT_TOL.abs_tol) -> NsReport:
    """Check every constraint of the relaxed A|BC family (two parties).

    On the Choi matrices: (i) the sum over A's outcomes must not depend on
    A's setting; (ii) the output-traced sum over B's outcomes must not
    depend on B's setting; (iii) the total must be setting independent
    with output partial trace ``1/d_in``.
    """
    return evaluate(family(l.scenario, ConstraintMode.ASYM_NS), _choi_members(l), tol)
