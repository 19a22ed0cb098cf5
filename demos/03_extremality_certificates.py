"""Extremality certificates from support patterns.

A pure-member assemblage is an extreme point of the no-signaling set
whenever its support pattern admits only one coefficient assignment.
The decomposition analysis turns the constraint family into one real
linear system and reads the answer off its kernel: nullity zero is a
uniqueness certificate, anything else yields an explicit convex split.

The same assemblage can be extreme under one constraint family and not
under a weaker one -- the bundled Bell-basis example is exactly such a
point, while its tilted variant stays extreme even in the relaxed mode.
"""

import numpy as np

from steercert import gallery
from steercert.assemblages import canonicalize_pure
from steercert.certificates import (
    ConstraintMode,
    decomposition_analysis,
    inflexibility_structural_check,
)

pure = canonicalize_pure(gallery.bell_cnot_assemblage())

full = decomposition_analysis(pure, ConstraintMode.NS_CHANNEL)
print("full mode:", full.verdict.value,
      f"(rank {full.rank}, nullity {full.nullity})")
print("structural witness settings:", inflexibility_structural_check(pure))

relaxed = decomposition_analysis(pure, ConstraintMode.ASYM_NS)
print("\nrelaxed mode:", relaxed.verdict.value,
      f"(rank {relaxed.rank}, nullity {relaxed.nullity})")
free = [pos for pos in relaxed.system.columns if pos not in relaxed.pinned]
print("free coordinates:", free)

c_plus, c_minus = relaxed.witness_pair
print("witness pair residuals: %.1e / %.1e"
      % (relaxed.system.residual_of(c_plus), relaxed.system.residual_of(c_minus)))
print("average recovers reference:",
      np.allclose((c_plus + c_minus) / 2, relaxed.system.reference))

# The tilted variant closes the gap: every coordinate is pinned even in
# the relaxed mode.
tilted = canonicalize_pure(gallery.tilted_cnot_assemblage())
cert = decomposition_analysis(tilted, ConstraintMode.ASYM_NS)
print("\ntilted variant, relaxed mode:", cert.verdict.value,
      f"(rank {cert.rank}, nullity {cert.nullity})")
