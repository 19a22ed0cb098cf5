"""Verification and extremality certification for multipartite state and
channel assemblages.

Modules:

- ``core``: dense linear-algebra primitives (operators, partial trace,
  rank/kernel helpers, NNLS).
- ``channels``: states, POVMs, and channels via Choi matrices.
- ``constraints``: the full no-signaling and relaxed A|BC constraint
  families, defined once; evaluated by the verifiers and vectorized by
  the certificate builder.
- ``assemblages``: state assemblages, no-signaling checks, LHS models.
- ``channel_assemblages``: channel assemblages and the relaxed
  constraint family.
- ``certificates``: extremality certificates from support patterns.
- ``security``: correlation tables and decomposition-pinning key
  certificates.
- ``documents``: versioned JSON serialization.
- ``gallery``: bundled reference constructions.
- ``cli``: the ``steercert`` command.
"""

__version__ = "0.1.0"
