"""Key extraction and the decomposition-pinning security argument.

Feeding |0> through the bundled channel assemblage and measuring the
output in the computational basis gives three perfectly correlated bits
at the setting pair (0, 0).  Security against a convex-decomposition
adversary follows if the constraint system pins every coefficient at the
key-generating setting: then every component the adversary could prepare
agrees there, and no attack biases the key.
"""

from steercert import gallery
from steercert.assemblages import canonicalize_pure
from steercert.security import correlations, eavesdropper_pinning, perfect_key_check

l = gallery.bell_cnot_assemblage()
table = correlations(l, gallery.key_input_state(), gallery.key_measurement())

print("statistics at the key settings (x, y) = (0, 0):")
for abc in [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]:
    print("  p(%d%d%d|00, z=0) = %.3f" % (*abc, table[(0, 0, 0, *abc)]))
print("perfect key at (0, 0):", perfect_key_check(table, 0, 0))
print("perfect key at (1, 0):", perfect_key_check(table, 1, 0))

pure = canonicalize_pure(l)
for settings in [(0, 0), (1, 0)]:
    cert = eavesdropper_pinning(pure, *settings)
    print("\npinning certificate at", settings)
    print("  certified:", cert.certified)
    print("  pinned outcome pairs:", list(cert.pinned_positions))
    print("  free outcome pairs:", list(cert.free_positions))
