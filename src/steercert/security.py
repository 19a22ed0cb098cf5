"""Key correlations from channel assemblages and the decomposition-pinning
security certificate.

The adversary model is convex decomposition: any eavesdropper attack on a
channel assemblage shared across the relaxed two-party scenario presents
the honest parties with one component of a convex mixture of assemblages
satisfying the same constraints.  If the constraint system pins every
coefficient at the key-generating setting pair, all components agree
there and no attack can bias the key."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Tolerances
from .channels import Povm, State, apply_choi
from .assemblages import PureAssemblage
from .channel_assemblages import ChannelAssemblage
from .certificates import (
    ConstraintMode,
    ExtremalityCertificate,
    Verdict,
    decomposition_analysis,
)


@dataclass(frozen=True)
class CorrelationTable:
    """p(a, b, c | x, y, z) as an array indexed [x][y][z][a][b][c]."""

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 6:
            raise ValueError("correlation table must be 6-dimensional")
        if np.any(arr < -1e-9):
            raise ValueError("probabilities must be nonnegative")
        object.__setattr__(self, "table", arr)

    def prob(self, a, b, c, x, y, z) -> float:
        return float(self.table[x, y, z, a, b, c])


def correlations(l: ChannelAssemblage, rho: State, charlie: Povm) -> CorrelationTable:
    """Measured statistics when the trusted side feeds ``rho`` through each
    member map and measures the output with ``charlie``."""
    scen = l.scenario
    if scen.n_parties != 2:
        raise ValueError("correlations are defined for two untrusted parties")
    d_out, d_in = scen.trusted_dims
    if rho.op.side != d_in:
        raise ValueError("input state dimension mismatch")
    if charlie.dim != d_out:
        raise ValueError("trusted measurement dimension mismatch")
    (m1, m2), (k1, k2) = scen.settings, scen.outcomes
    mz, kz = charlie.settings, charlie.outcomes
    table = np.zeros((m1, m2, mz, k1, k2, kz))
    for x in range(m1):
        for y in range(m2):
            for a in range(k1):
                for b in range(k2):
                    out = apply_choi(l.members[((a, b), (x, y))], rho.op)
                    for z in range(mz):
                        for c in range(kz):
                            eff = charlie.effects[z][c]
                            table[x, y, z, a, b, c] = float(
                                np.trace(eff.data @ out.data).real)
    return CorrelationTable(table)


def perfect_key_check(t: CorrelationTable, x_key: int, y_key: int,
                      tol: float = DEFAULT_TOL.abs_tol) -> bool:
    """Whether the statistics at ``(x_key, y_key)`` form a perfect key bit.

    Requires binary outcomes on all three slots: the two agreeing triples
    (0,0,0) and (1,1,1) each occur with probability one half for every
    trusted setting, and everything else vanishes.
    """
    m1, m2, mz, k1, k2, kz = t.table.shape
    if (k1, k2, kz) != (2, 2, 2):
        raise ValueError("perfect key check requires binary outcomes throughout")
    block = t.table[x_key, y_key]
    for z in range(mz):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    expected = 0.5 if a == b == c else 0.0
                    if abs(block[z, a, b, c] - expected) > tol:
                        return False
    return True


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
        raise ValueError("pinning certificate requires two untrusted parties")
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
            if pos not in p.members or pos in pinned_set:
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
