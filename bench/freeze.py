#!/usr/bin/env python3
"""Regenerate ``bench/expected.json``: the answers the constructions do not
decide, frozen from the current program.

    python3 bench/freeze.py

For every case it runs the program on ``POOL`` instances of each of
``SEEDS`` and requires one answer across all of them.  Each frozen nullity is also
computed by pivoted QR on the program's constraint matrix, and the tool
stops on any disagreement, or on any answer that contradicts what the
construction decides (a quantum realization passing NS, a product state
having an LHS model, and so on).  Malformed documents and signaling
mutants are decided by construction alone, so nothing is frozen for them.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402

SEEDS = range(3)
FROZEN_FORMS = {"entangled", "product", "channel", "fixture", "reproduce"}


def freeze_workload(name):
    frozen = {}
    for case in instances.WORKLOADS[name]():
        if case.form not in FROZEN_FORMS:
            continue
        seen = set()
        for seed in SEEDS:
            work = harness.Workload(name, seed, ROOT)
            work.cases = [case]
            work.expected = {case.name: case.expect}
            work.generate()
            for index in range(instances.POOL):
                answer, code = work.answer(case, index, tracing.NullTracer(), not work.cli)
                outcome, detail = work.check(case, answer, code)
                if outcome != "ok":
                    sys.exit(f"{name}/{case.name} seed {seed}: construction says "
                             f"otherwise: {detail}")
                record = {"exit": code, **answer}
                if "nullity" in answer and index == 0:
                    work.expected[case.name] = record
                    problems = work.cross_check()
                    work.expected[case.name] = case.expect
                    if problems:
                        sys.exit(f"{name}/{case.name} seed {seed}: {problems}")
                seen.add(json.dumps(record, sort_keys=True))
            work.cleanup()
            if case.form in ("fixture", "reproduce"):
                break  # no randomness: one seed is enough
        if len(seen) != 1:
            sys.exit(f"{name}/{case.name}: answers differ across instances: {sorted(seen)}")
        frozen[case.name] = json.loads(seen.pop())
        print(f"{name}/{case.name}: {frozen[case.name]}", flush=True)
    return frozen


def main():
    data = {name: freeze_workload(name) for name in sorted(instances.WORKLOADS)}
    instances.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
