"""Verification and extremality certification for multipartite state and
channel assemblages.

Modules:

- ``core``: dense linear-algebra primitives (tolerances, the one checked
  read-only copy that every container holds its arrays in, PSD deviation,
  the output partial trace of Choi matrices, rank/kernel helpers, and
  NNLS for the joint LHS weight system, the one caller that imports
  scipy).
- ``channels``: states, POVMs, and channels via Choi matrices, each
  held as a read-only complex array.
- ``constraints``: the full no-signaling, no-signaling channel and
  relaxed A|BC constraint families, each defined once; evaluated by the
  verifiers and vectorized by the certificate builder.
- ``assemblages``: state assemblages, no-signaling checks, LHS models.
- ``channel_assemblages``: channel assemblages, the assemblages of Choi
  matrices that meet the output-trace condition, and their verifiers.
- ``certificates``: extremality certificates from support patterns.
- ``security``: correlation tables (plain float arrays) and
  decomposition-pinning key certificates.
- ``documents``: versioned JSON serialization.
- ``gallery``: bundled reference constructions.
- ``cli``: the ``steercert`` command.
"""

__version__ = "0.1.0"
