"""No-signaling verification for state and channel assemblages.

Measuring one half of an entangled state steers the other half into an
assemblage of conditional states.  Whatever the measurements, the steered
party cannot detect the remote setting choice: quantum assemblages always
pass the no-signaling checks.  Channel assemblages obey the same
constraints at the level of Choi matrices, plus one extra condition
tying the total to a trace-preserving channel.
"""

import numpy as np

from steercert import gallery
from steercert.channels import projective_povm, pure_state
from steercert.assemblages import Assemblage, Scenario, assemblage_from_realization, verify_ns
from steercert.channel_assemblages import verify_asym_ns, verify_ns_channel

# One untrusted qubit measured in the Z and X bases on half a Bell pair.
bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
povm = projective_povm([
    [np.array([1, 0]), np.array([0, 1])],
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)],
])
scen = Scenario((2,), (2,), (2,))
steered = assemblage_from_realization(pure_state((2, 2), bell), (povm,), scen)
report = verify_ns(steered)
print("steered qubit assemblage no-signaling:", report.ok)
print("member for outcome 0, setting Z:")
print(np.round(steered.member((0,), (0,)).real, 3))

# Tampering with one member is detected and named.  The members are one
# (positions, D, D) array; scen.index(a, x) is the place of member a|x.
members = steered.members.copy()
members[scen.index((0,), (1,))] *= 1.4
members[scen.index((1,), (1,))] *= 0.6
bad = verify_ns(Assemblage(scen, members))
print("\nafter tampering:", bad.ok)
for v in bad.violations[:2]:
    print("  violated:", v.constraint, "by", round(v.magnitude, 3))

# The bundled channel assemblage passes both constraint families.
l = gallery.bell_cnot_assemblage()
full = verify_ns_channel(l)
relaxed = verify_asym_ns(l)
print("\nchannel assemblage full no-signaling:", full.ok,
      "(trace condition deviation %.1e)" % full.trace_condition_deviation)
print("channel assemblage relaxed (A vs BC) family:", relaxed.ok)
