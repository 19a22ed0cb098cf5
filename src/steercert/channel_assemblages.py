"""Channel assemblages and their verification in Choi space.

A channel assemblage collects completely positive maps, indexed like a
state assemblage, whose totals form a fixed channel.  All verification
here happens on the Choi matrices: a family of CP maps is a no-signaling
channel assemblage exactly when its Choi matrices form a no-signaling
state assemblage whose total partially traces (over the output factor) to
the maximally mixed input.  That set is one constraint family,
``ConstraintMode.NS_CHANNEL``, which :func:`verify_ns_channel` evaluates
and a channel assemblage's full extremality certificate ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BUILD_SLACK, DEFAULT_TOL
from .channels import ChoiOp, State, verify_cptp
from .assemblages import Assemblage, Scenario, measured_members
from .constraints import ConstraintMode, NsReport, evaluate, family


class ChannelAssemblage(Assemblage):
    """An assemblage whose members are the Choi matrices of CP maps, on
    ``trusted_dims = (d_out, d_in)``: the state assemblage that the
    Choi-Jamiolkowski isomorphism makes of it."""

    def __post_init__(self):
        if len(self.scenario.trusted_dims) != 2:
            raise ValueError("scenario trusted_dims must be (d_out, d_in)")
        super().__post_init__()


@dataclass(frozen=True)
class NsChannelReport:
    assemblage_report: NsReport  # the trace condition among its violations
    trace_condition_deviation: float

    @property
    def ok(self) -> bool:
        return self.assemblage_report.ok


def chanasm_from_realization(rho_untrusted: State, povms, channel: ChoiOp,
                             scenario: Scenario) -> ChannelAssemblage:
    """Build the channel assemblage of an explicit quantum realization.

    ``channel`` maps the untrusted parties together with the trusted input
    to the untrusted parties and the trusted output.  Routing one half of
    a maximally entangled pair through the interaction, with ``rho_U`` on
    the untrusted parties, leaves ``d_U * sum_qv J[(p,o,q,i),(r,s,v,j)]
    rho_U[q,v]`` on ``(U, d_out, d_in)``, one contraction of the channel's
    Choi matrix ``J``; measuring the untrusted parties then leaves each
    member's Choi matrix on ``(d_out, d_in)``.
    """
    d_out, d_in = scenario.trusted_dims
    if not verify_cptp(channel, BUILD_SLACK).ok:
        raise ValueError("realization channel must be CPTP")
    untrusted_dims = rho_untrusted.dims
    if channel.in_dims != untrusted_dims + (d_in,):
        raise ValueError("channel input dims must be untrusted dims + (d_in,)")
    if channel.out_dims != untrusted_dims + (d_out,):
        raise ValueError("channel output dims must be untrusted dims + (d_out,)")

    d_u = rho_untrusted.matrix.shape[0]
    j = channel.matrix.reshape(d_u, d_out, d_u, d_in, d_u, d_out, d_u, d_in)
    rho = d_u * np.einsum("poqirsvj,qv->poirsj", j, rho_untrusted.matrix)
    side = d_u * d_out * d_in
    members = measured_members(rho.reshape(side, side), povms, scenario)
    return ChannelAssemblage(scenario, (members + members.conj().transpose(0, 2, 1)) / 2)


def to_choi_assemblage(l: ChannelAssemblage) -> Assemblage:
    """The Choi matrices as a plain state assemblage on out (x) in, with
    its own copy of the members array: what ``steercert choi`` writes."""
    return Assemblage(l.scenario, l.members)


def verify_ns_channel(l: ChannelAssemblage,
                      tol: float = DEFAULT_TOL.abs_tol) -> NsChannelReport:
    """Check positivity and every constraint of the no-signaling channel
    family: the full no-signaling family on the Choi matrices, then the
    total's output trace against ``1/d_in``, the family's last constraint."""
    report = evaluate(family(l.scenario, ConstraintMode.NS_CHANNEL), l.members, tol)
    return NsChannelReport(report, float(report.deviations[-1]))


def verify_asym_ns(l: ChannelAssemblage,
                   tol: float = DEFAULT_TOL.abs_tol) -> NsReport:
    """Check positivity and every constraint of the relaxed A|BC family
    (two parties).

    On the Choi matrices: (i) the sum over A's outcomes must not depend on
    A's setting; (ii) the output-traced sum over B's outcomes must not
    depend on B's setting; (iii) the total must be setting independent
    with output partial trace ``1/d_in``.
    """
    return evaluate(family(l.scenario, ConstraintMode.ASYM_NS), l.members, tol)
