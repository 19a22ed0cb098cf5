"""Key correlations from channel assemblages and the decomposition-pinning
security certificate.

The adversary model is convex decomposition: any eavesdropper attack on a
channel assemblage shared across the relaxed two-party scenario presents
the honest parties with one component of a convex mixture of assemblages
satisfying the same constraints.  If the constraint system pins every
coefficient at the key-generating setting pair, all components agree
there and no attack can bias the key."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ScenarioError, Tolerances
from .channels import Povm, State
from .assemblages import PureAssemblage
from .channel_assemblages import ChannelAssemblage
from .certificates import (
    ConstraintMode,
    ExtremalityCertificate,
    decomposition_analysis,
)


def correlations(l: ChannelAssemblage, rho: State, charlie: Povm,
                 tol: float = DEFAULT_TOL.abs_tol) -> np.ndarray:
    """Measured statistics when the trusted side feeds ``rho`` through each
    member map and measures the output with ``charlie``: p(a, b, c | x, y,
    z) as a float array indexed ``[x, y, z, a, b, c]``, refused if an
    entry falls below ``-tol``."""
    scen = l.scenario
    if scen.n_parties != 2:
        raise ValueError("correlations are defined for two untrusted parties")
    d_out, d_in = scen.trusted_dims
    if rho.matrix.shape[0] != d_in:
        raise ValueError("input state dimension mismatch")
    if charlie.dim != d_out:
        raise ValueError("trusted measurement dimension mismatch")
    (m1, m2), (k1, k2) = scen.settings, scen.outcomes
    # choi[x, y, a, b, o, i, o', i'] = J_{ab|xy}[(o, i), (o', i')]
    choi = l.members.reshape(m1, m2, k1, k2, d_out, d_in, d_out, d_in)
    # p(a, b, c | x, y, z) = Tr[E_{c|z} L_{ab|xy}(rho)], where
    # L(rho) = d_in Tr_in[(1 (x) rho^T) J]
    table = np.einsum("zcqo,xyabomqn,mn->xyzabc", charlie.effects, choi, rho.matrix)
    table = d_in * table.real
    if np.any(table < -tol):
        raise ValueError("probabilities must be nonnegative")
    return table


def key_scenario_check(scen, rho: State, charlie: Povm) -> None:
    """Refuse a scenario that cannot carry the key that ``rho`` and
    ``charlie`` read, before any certificate is built: it needs two parties
    with binary outcomes, and trusted dims ``(d_out, d_in)`` equal to the
    dims that ``charlie`` measures and that ``rho`` lives on."""
    if scen.n_parties != 2:
        raise ScenarioError("pinning certificate requires two untrusted parties")
    if scen.outcomes != (2, 2):
        raise ScenarioError("perfect key check requires binary outcomes throughout")
    d_out, d_in = scen.trusted_dims
    if d_out != charlie.dim:
        raise ScenarioError(f"trusted output dim {d_out} is not the key measurement's "
                            f"dim {charlie.dim}")
    if d_in != rho.matrix.shape[0]:
        raise ScenarioError(f"trusted input dim {d_in} is not the key input state's "
                            f"dim {rho.matrix.shape[0]}")


def perfect_key_check(t: np.ndarray, x_key: int, y_key: int,
                      tol: float = DEFAULT_TOL.abs_tol) -> bool:
    """Whether the statistics at ``(x_key, y_key)`` form a perfect key bit.

    ``t`` is a table of :func:`correlations`.  Requires binary outcomes on
    all three slots: the two agreeing triples (0,0,0) and (1,1,1) each
    occur with probability one half for every trusted setting, and
    everything else vanishes.
    """
    if t.shape[3:] != (2, 2, 2):
        raise ScenarioError("perfect key check requires binary outcomes throughout")
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 0.5
    return bool(np.all(np.abs(t[x_key, y_key] - expected) <= tol))


@dataclass(frozen=True)
class PinningCertificate:
    key_settings: tuple
    certified: bool
    pinned_positions: tuple  # the (a, b) pairs pinned at the key settings
    free_positions: tuple
    certificate: ExtremalityCertificate

    def to_json(self) -> dict:
        return {
            "key_settings": list(self.key_settings),
            "certified": self.certified,
            "pinned_positions": [list(p) for p in self.pinned_positions],
            "free_positions": [list(p) for p in self.free_positions],
            "certificate": self.certificate.to_json(),
        }


def eavesdropper_pinning(p: PureAssemblage, x_key: int, y_key: int,
                         tol: Tolerances = DEFAULT_TOL) -> PinningCertificate:
    """Certify that no convex decomposition moves the key-setting members.

    Runs the relaxed-mode decomposition analysis; the certificate holds
    iff every coordinate indexed ``(a, b | x_key, y_key)`` is pinned, so
    every admissible decomposition (the convex-mixture adversary model)
    has identical members at the key settings."""
    scen = p.scenario
    if scen.n_parties != 2:
        raise ScenarioError("pinning certificate requires two untrusted parties")
    for name, key, m in (("x_key", x_key, scen.settings[0]),
                         ("y_key", y_key, scen.settings[1])):
        if not 0 <= key < m:
            raise ValueError(f"{name} {key} is not a setting: expected 0 <= {name} < {m}")
    cert = decomposition_analysis(p, ConstraintMode.ASYM_NS, tol)
    pinned_set = set(cert.pinned)
    pinned, free = [], []
    for a in range(scen.outcomes[0]):
        for b in range(scen.outcomes[1]):
            pos = ((a, b), (x_key, y_key))
            if pos not in p.support or pos in pinned_set:
                pinned.append((a, b))  # zero positions are trivially pinned
            else:
                free.append((a, b))
    return PinningCertificate(
        key_settings=(x_key, y_key),
        certified=not free,
        pinned_positions=tuple(pinned),
        free_positions=tuple(free),
        certificate=cert,
    )
