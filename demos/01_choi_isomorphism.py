"""Round-tripping channels through their Choi matrices.

A channel and its Choi matrix carry the same information: the matrix is
PSD exactly when the map is completely positive, and its partial trace
over the output factor is maximally mixed exactly when the map preserves
traces.  This script builds a few channels, converts them back and forth,
and shows both counterexample directions of that equivalence.
"""

import numpy as np

from steercert.channels import (
    ChoiOp,
    KrausChannel,
    apply_choi,
    choi_from_map,
    choi_of_kraus,
    choi_of_unitary,
    verify_cptp,
)

rng = np.random.default_rng(1)

# A unitary channel: the Choi matrix is the (rotated) maximally entangled state.
u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
hadamard = choi_of_unitary(u)
print("Hadamard channel Choi matrix:")
print(np.round(hadamard.matrix.real, 3))
print("CPTP:", verify_cptp(hadamard).ok)

# The action is recovered from the Choi matrix alone.
rho = np.array([[1, 0], [0, 0]], dtype=complex)
print("\nH|0><0|H^dag via the Choi matrix:")
print(np.round(apply_choi(hadamard, rho).real, 3))

# Random channels round-trip as well: a seeded isometry from C^3 into
# C^6 (x) C^2, cut into six 2x3 Kraus operators.
g = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
isometry, _ = np.linalg.qr(g)
k = KrausChannel(3, 2, isometry.reshape(6, 2, 3))
choi = choi_of_kraus(k)
x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
direct = sum(op @ x @ op.conj().T for op in k.kraus_ops)
via_choi = apply_choi(choi, x)
print("\nrandom 3->2 channel, round-trip deviation:",
      np.max(np.abs(direct - via_choi)))

# Counterexample 1: the transpose map is positive but not completely
# positive -- its Choi matrix has a negative eigenvalue.
transpose = choi_from_map(lambda x: x.T, (2,), (2,))
report = verify_cptp(transpose)
print("\ntranspose map: cp =", report.cp, " tp =", report.tp,
      " min eigenvalue =", round(report.min_eigenvalue, 3))

# Counterexample 2: scaling a channel keeps complete positivity but
# breaks trace preservation.
scaled = ChoiOp((2,), (2,), 0.9 * hadamard.matrix)
report = verify_cptp(scaled)
print("0.9 x Hadamard: cp =", report.cp, " tp =", report.tp,
      " tp deviation =", round(report.tp_deviation, 3))
