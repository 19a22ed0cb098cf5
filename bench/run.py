#!/usr/bin/env python3
"""steercert benchmark: time to verdict, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload multiparty-certify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

import os
import sys

# BLAS/OpenMP threads are pinned before numpy loads, in this process and in
# every child it starts.
THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("multiparty-certify", "bipartite-lhs", "cli-channel")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "steercert" / "__init__.py").is_file():
        print(f"error: no steercert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    return harness.run(args, root, THREADS)


if __name__ == "__main__":
    sys.exit(main())
