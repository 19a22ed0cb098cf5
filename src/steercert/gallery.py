"""Bundled reference constructions used by the demos, tests and the CLI
``reproduce`` command.

Two channel assemblages over a qubit trusted system are provided, both
realized by routing one half of a Bell pair through a controlled-NOT
interaction with the trusted input and measuring the untrusted qubits:

* ``bell_cnot_*``: both parties measure in the computational and Hadamard
  bases.  The resulting Choi-matrix assemblage has two zero positions and
  Bell-type members, is extreme under the full no-signaling constraints,
  and yields a perfect key bit at settings (0, 0).
* ``tilted_cnot_*``: the setting-0 measurement bases are tilted; the
  resulting assemblage has sixteen distinct rank-one members and stays
  extreme even under the relaxed two-party constraints.
"""

from __future__ import annotations

import numpy as np

from .channels import ChoiOp, Povm, State, choi_of_unitary, projective_povm, pure_state
from .assemblages import Scenario
from .channel_assemblages import ChannelAssemblage, chanasm_from_realization

_S2 = np.sqrt(2.0)

KET_PLUS = np.array([1, 1], dtype=complex) / _S2
KET_MINUS = np.array([1, -1], dtype=complex) / _S2

# Bell-type two-qubit kets on (output, input)
KET_PHI = np.array([1, 0, 0, 1], dtype=complex) / _S2
KET_PHI_FLIP = np.array([0, 1, 1, 0], dtype=complex) / _S2
KET_XI = (KET_PHI + KET_PHI_FLIP) / _S2
KET_THETA = (KET_PHI - KET_PHI_FLIP) / _S2


def bell_cnot_scenario() -> Scenario:
    return Scenario(settings=(2, 2), outcomes=(2, 2), trusted_dims=(2, 2))


def _cnot_interaction() -> ChoiOp:
    """Identity on the first untrusted qubit, CNOT from the second onto
    the trusted qubit."""
    cnot = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
    u = np.kron(np.eye(2), cnot)
    return choi_of_unitary(u, in_dims=(2, 2, 2), out_dims=(2, 2, 2))


def computational_hadamard_povm() -> Povm:
    return projective_povm([
        [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)],
        [KET_PLUS, KET_MINUS],
    ])


def bell_cnot_realization():
    """(shared state, per-party POVMs, interaction channel, scenario)."""
    povm = computational_hadamard_povm()
    return pure_state((2, 2), KET_PHI), (povm, povm), _cnot_interaction(), bell_cnot_scenario()


def bell_cnot_assemblage() -> ChannelAssemblage:
    rho, povms, channel, scenario = bell_cnot_realization()
    return chanasm_from_realization(rho, povms, channel, scenario)


def bell_cnot_expected_members() -> dict:
    """Frozen Choi members: (a, b | x, y) -> matrix on (output, input)."""

    def proj(ket, weight):
        return weight * np.outer(ket, ket.conj())

    phi, flip, xi, theta = KET_PHI, KET_PHI_FLIP, KET_XI, KET_THETA
    zero = np.zeros((4, 4), dtype=complex)
    members = {
        ((0, 0), (0, 0)): proj(phi, 0.5),
        ((0, 1), (0, 0)): zero,
        ((1, 0), (0, 0)): zero,
        ((1, 1), (0, 0)): proj(flip, 0.5),
        ((0, 0), (0, 1)): proj(phi, 0.25),
        ((0, 1), (0, 1)): proj(phi, 0.25),
        ((1, 0), (0, 1)): proj(flip, 0.25),
        ((1, 1), (0, 1)): proj(flip, 0.25),
        ((0, 0), (1, 0)): proj(phi, 0.25),
        ((0, 1), (1, 0)): proj(flip, 0.25),
        ((1, 0), (1, 0)): proj(phi, 0.25),
        ((1, 1), (1, 0)): proj(flip, 0.25),
        ((0, 0), (1, 1)): proj(xi, 0.25),
        ((0, 1), (1, 1)): proj(theta, 0.25),
        ((1, 0), (1, 1)): proj(theta, 0.25),
        ((1, 1), (1, 1)): proj(xi, 0.25),
    }
    return members


def key_input_state() -> State:
    return State((2,), np.array([[1, 0], [0, 0]], dtype=complex))


def key_measurement() -> Povm:
    return projective_povm([
        [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)],
    ])


# Tilted single-qubit kets used by the second construction.
KET_TILT_B0 = np.array([1, 2], dtype=complex) / np.sqrt(5)
KET_TILT_B1 = np.array([2, -1], dtype=complex) / np.sqrt(5)
KET_TILT_A0 = np.array([1, _S2], dtype=complex) / np.sqrt(3)
KET_TILT_A1 = np.array([_S2, -1], dtype=complex) / np.sqrt(3)


def tilted_cnot_realization():
    povm_a = projective_povm([[KET_TILT_A0, KET_TILT_A1], [KET_PLUS, KET_MINUS]])
    povm_b = projective_povm([[KET_TILT_B0, KET_TILT_B1], [KET_PLUS, KET_MINUS]])
    return pure_state((2, 2), KET_PHI), (povm_a, povm_b), _cnot_interaction(), bell_cnot_scenario()


def tilted_cnot_assemblage() -> ChannelAssemblage:
    rho, povms, channel, scenario = tilted_cnot_realization()
    return chanasm_from_realization(rho, povms, channel, scenario)


def tilted_cnot_expected_kets() -> dict:
    """Frozen unnormalized member kets: (a, b | x, y) -> vector.

    Each member equals the outer product of its ket; squared norms are the
    member weights.
    """
    s15, s10, s6 = np.sqrt(15.0), np.sqrt(10.0), np.sqrt(6.0)

    def ket(c00, c01, c10, c11, denom):
        return np.array([c00, c01, c10, c11], dtype=complex) / denom

    return {
        ((0, 0), (0, 0)): ket(1, 2 * _S2, 2 * _S2, 1, 2 * s15),
        ((0, 1), (0, 0)): ket(2, -_S2, -_S2, 2, 2 * s15),
        ((1, 0), (0, 0)): ket(_S2, -2, -2, _S2, 2 * s15),
        ((1, 1), (0, 0)): ket(2 * _S2, 1, 1, 2 * _S2, 2 * s15),
        ((0, 0), (0, 1)): ket(1, _S2, _S2, 1, 2 * s6),
        ((0, 1), (0, 1)): ket(1, -_S2, -_S2, 1, 2 * s6),
        ((1, 0), (0, 1)): ket(_S2, -1, -1, _S2, 2 * s6),
        ((1, 1), (0, 1)): ket(_S2, 1, 1, _S2, 2 * s6),
        ((0, 0), (1, 0)): ket(1, 2, 2, 1, 2 * s10),
        ((0, 1), (1, 0)): ket(2, -1, -1, 2, 2 * s10),
        ((1, 0), (1, 0)): ket(1, -2, -2, 1, 2 * s10),
        ((1, 1), (1, 0)): ket(2, 1, 1, 2, 2 * s10),
        ((0, 0), (1, 1)): np.kron(KET_PLUS, KET_PLUS) / 2,
        ((0, 1), (1, 1)): np.kron(KET_MINUS, KET_MINUS) / 2,
        ((1, 0), (1, 1)): np.kron(KET_MINUS, KET_MINUS) / 2,
        ((1, 1), (1, 1)): np.kron(KET_PLUS, KET_PLUS) / 2,
    }


def nonextremal_split_coefficients():
    """Two distinct relaxed-mode feasible weight tables averaging to the
    Bell-basis assemblage: positions (a, b | 1, 0) move by +-1/2 while all
    other positions stay at the reference."""
    plus, minus = {}, {}
    for pos, member in bell_cnot_expected_members().items():
        w = float(np.trace(member).real)
        if w == 0.0:
            continue
        plus[pos] = w
        minus[pos] = w
    for (a, b), factor in {(0, 0): 1.5, (0, 1): 0.5,
                           (1, 0): 0.5, (1, 1): 1.5}.items():
        pos = ((a, b), (1, 0))
        plus[pos] *= factor
        minus[pos] *= 2 - factor
    return plus, minus
