"""Run one workload: set up, measure complete rounds, check every answer.

Closed loop, one client, one instance at a time.  A round runs every case
of the workload once; the run keeps starting rounds until ``--seconds``
have passed, and always finishes the round it is in.  Because every round
has the same mix, the quantiles below do not move when a faster program
fits more rounds into the window.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special

import instances
import pipeline
import tracing
from steercert import certificates, documents

LIMIT_S = 30.0  # per-instance time limit; an instance over it is an error
SETUP_REPS = 3  # set-up repetitions; setup_s is their median
TAIL_PCT = 90  # verdict_tail_s is this percentile
PROBE_REPS = 3  # interpreter / import probes in a traced run


class InstanceTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InstanceTimeout(f"over the {LIMIT_S:.0f} s limit")


def environment(args, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "nproc": os.cpu_count(),
    }


class Workload:
    def __init__(self, name, seed, root: Path):
        self.name = name
        self.seed = seed
        self.root = root
        self.src = root / "src"
        self.cases = instances.WORKLOADS[name]()
        self.by_name = {c.name: c for c in self.cases}
        expected = instances.load_expected().get(name, {})
        self.expected = {c.name: {**expected.get(c.name, {}), **c.expect}
                         for c in self.cases}
        self.cli = name == "cli-channel"
        self.docs = {}
        self.paths = {}
        self.workdir = root / "bench" / "out" / f"docs-{name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)

    # -- set-up --------------------------------------------------------------

    def generate(self):
        """Make every document from the seed and, for the CLI, write it."""
        self.docs = {(c.name, i): instances.document(c, self.seed, i, self.src)
                     for c in self.cases for i in range(instances.POOL)}
        if self.cli:
            self.workdir.mkdir(parents=True, exist_ok=True)
            for (name, i), raw in self.docs.items():
                if raw is not None:
                    path = self.workdir / f"{name}-{i}.json"
                    path.write_bytes(raw)
                    self.paths[(name, i)] = path

    def child(self, code):
        """Wall time of a fresh interpreter running ``code``."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                       check=True, timeout=LIMIT_S)
        return start, time.perf_counter()

    def setup(self, in_process):
        """One set-up: interpreter start and imports (in a fresh child),
        instance generation and serialization, one untimed warm-up."""
        start = time.perf_counter()
        self.child("import steercert.cli")
        self.generate()
        self.run(self.cases[0], 0, tracing.NullTracer(), in_process)
        return time.perf_counter() - start

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one instance ----------------------------------------------------------

    def run(self, case, rnd, tracer, in_process):
        """Run the instance of ``case`` for round ``rnd``; returns
        (seconds, outcome, detail)."""
        start = time.perf_counter()
        crash = None
        try:
            answer, code = self.answer(case, rnd, tracer, in_process)
        except Exception as exc:  # the instance crashed: count it, keep going
            crash = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        tracer.flush()
        if crash:
            return seconds, "failed", crash
        if seconds > LIMIT_S:
            return seconds, "failed", f"over the {LIMIT_S:.0f} s limit"
        return seconds, *self.check(case, answer, code)

    def answer(self, case, rnd, tracer, in_process):
        """Run round ``rnd``'s instance of ``case`` (pool instance
        ``rnd % POOL``); returns (answer, exit code) or raises."""
        index = rnd % instances.POOL
        if in_process:
            return self._in_process(case, self.docs[(case.name, index)], tracer,
                                    f"{case.name}#{rnd}")
        return self._subprocess(case, index)

    def _in_process(self, case, raw, tracer, label):
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            with tracer.instance(label):
                if self.cli:
                    answer = pipeline.run_command(case.argv, raw, tracer)
                else:
                    answer = pipeline.certify(raw, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return answer, pipeline.EXIT[answer["status"]]

    def _subprocess(self, case, index):
        argv = [sys.executable, "-m", "steercert.cli", "--output", "json", *case.argv]
        if (case.name, index) in self.paths:
            argv.append(str(self.paths[(case.name, index)]))
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              timeout=LIMIT_S)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"exit {proc.returncode} without a report: "
                               f"{' '.join(tail)}") from None
        return pipeline.answer_of_details(report["status"], report["details"]), \
            proc.returncode

    def check(self, case, answer, code):
        wrong = []
        for key, want in self.expected[case.name].items():
            got = code if key == "exit" else answer.get(key)
            if got != want:
                wrong.append(f"{key}: expected {want!r}, got {got!r}")
        return ("wrong", "; ".join(wrong)) if wrong else ("ok", "")

    # -- independent nullity check -------------------------------------------

    def cross_check(self):
        """Nullity of every frozen case by pivoted QR, against the frozen value.

        Uses the program's build_constraint_system but not its rank code; the
        rank tolerance is the same relative threshold.
        """
        problems = []
        for case in self.cases:
            want = self.expected[case.name].get("nullity")
            raw = self.docs[(case.name, 0)]
            if want is None or raw is None:
                continue
            mode = certificates.ConstraintMode.FULL_NS
            if "asym" in case.argv:
                mode = certificates.ConstraintMode.ASYM_NS
            try:
                pure = pipeline.pure_assemblage(tracing.NullTracer(), documents.parse(raw))
                system = certificates.build_constraint_system(pure, mode)
            except Exception as exc:  # a failing build is a mismatch, not a crash
                problems.append(f"{case.name}: constraint system failed: {exc!r}")
                continue
            got = qr_nullity(system.matrix, pipeline.TOL.rank_rel_tol)
            if got != want:
                problems.append(f"{case.name}: frozen nullity {want}, pivoted QR gives {got}")
        return problems


def qr_nullity(matrix, rel_tol):
    r = scipy.linalg.qr(matrix, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > rel_tol * diag[0])) if diag.size and diag[0] else 0
    return matrix.shape[1] - rank


def measure(work: Workload, seconds, traced):
    """Closed loop of complete rounds.  In a traced run the rounds alternate
    untraced / traced, so the tracing overhead is measured on equal mixes."""
    in_process = traced or not work.cli
    tracer = tracing.Tracer()
    results = []
    start = time.perf_counter()
    rnd = 0
    while True:
        trace_this = traced and rnd % 2 == 1
        tr = tracer if trace_this else tracing.NullTracer()
        for case in work.cases:
            seconds_, outcome, detail = work.run(case, rnd, tr, in_process)
            results.append({"case": case.name, "round": rnd, "traced": trace_this,
                            "seconds": seconds_, "outcome": outcome, "detail": detail})
        rnd += 1
        if time.perf_counter() - start >= seconds and (not traced or rnd % 2 == 0):
            break
    return results, time.perf_counter() - start, rnd, tracer


def probe_layers(work: Workload):
    """Fixed probe over small documents, for layers a workload never calls."""
    tracer = tracing.Tracer()
    fixture = instances.load_fixture(work.src, instances.CHANNEL_CA)
    realization = instances.load_fixture(work.src, "example1.json")
    for argv, raw in [(("verify",), fixture), (("verify", "--mode", "asym-ns"), fixture),
                      (("security-cert",), fixture),
                      (("extremality", "--mode", "full"), realization)]:
        with tracer.instance("probe"):
            pipeline.run_command(argv, raw, tracer)
        tracer.flush()
    for form in ("product", "entangled"):
        case = instances.Case(f"probe-{form}", form, 2, 2, 2, 2, "assemblage")
        with tracer.instance("probe"):
            pipeline.certify(instances.document(case, 0, 0, work.src), tracer)
        tracer.flush()
    return tracer


def interpreter_probes(work: Workload, tracer):
    """cli.interpreter is ``python -c pass``; cli.import is
    ``python -c "import steercert.cli"`` minus that."""
    for _ in range(PROBE_REPS):
        start, end = work.child("pass")
        tracer.record("cli.interpreter", start, end)
        istart, iend = work.child("import steercert.cli")
        tracer.record("cli.import", istart, istart + (iend - istart) - (end - start))


def harrell_davis(values, q):
    """Harrell-Davis estimate of quantile ``q``: a beta-weighted mean of all
    order statistics.  Times cluster by case, and a plain sample quantile
    jumps when it falls between two clusters; this one does not."""
    x = np.sort(values)
    n = len(x)
    cdf = scipy.special.betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def peak_rss_mb(work: Workload):
    """Peak resident memory of the process doing the work: this one for
    in-process workloads, the largest child for the CLI."""
    who = resource.RUSAGE_CHILDREN if work.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(setup_times, results, window, rss_mb, error_ratio):
    times = [r["seconds"] for r in results]
    p50, tail = harrell_davis(times, 0.5), harrell_davis(times, TAIL_PCT / 100)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_p50_s": (p50, "s"),
        "verdict_tail_s": (tail, "s"),
        "verdicts_per_s": (len(times) / window, "1/s"),
        "correct_ratio": (1 - error_ratio, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"tail_percentile": TAIL_PCT, "samples": len(times),
             "samples_beyond_tail": sum(t > tail for t in times),
             "setup_runs_s": setup_times}
    return metrics, notes


def traced_metrics(tracer, probe, results, rounds):
    metrics, sources = tracing.layer_metrics(tracer, rounds // 2, probe)
    plain = [r["seconds"] for r in results if not r["traced"]]
    with_trace = [r["seconds"] for r in results if r["traced"]]
    metrics["trace.overhead_ratio"] = (sum(with_trace) / sum(plain), "ratio")
    metrics["trace.verdicts_per_s_untraced"] = (len(plain) / sum(plain), "1/s")
    metrics["trace.verdicts_per_s_traced"] = (len(with_trace) / sum(with_trace), "1/s")
    return metrics, sources


def run(args, root: Path, threads):
    env = environment(args, threads)
    work = Workload(args.workload, args.seed, root)
    traced = bool(args.trace)
    try:
        setup_times = [work.setup(traced or not work.cli)
                       for _ in range(1 if traced else SETUP_REPS)]
        results, window, rounds, tracer = measure(work, args.seconds, traced)
    finally:
        work.cleanup()
    rss_mb = peak_rss_mb(work)  # before the checks below allocate
    problems = work.cross_check()
    attempted = len(results)
    failed = sum(r["outcome"] == "failed" for r in results)
    wrong = sum(r["outcome"] == "wrong" for r in results) + len(problems)
    error_ratio = (failed + wrong) / attempted
    out = {"environment": env, "rounds": rounds, "window_s": window,
           "cross_check": problems, "instances": results}
    if traced:
        interpreter_probes(work, tracer)
        metrics, sources = traced_metrics(tracer, probe_layers(work), results, rounds)
        out["layer_sources"] = sources
        out["shape_table"] = tracing.shape_table(tracer, work.by_name)
        out["spans"] = [vars(s) for s in tracer.spans]
        notes = {}
    else:
        metrics, notes = end_to_end(setup_times, results, window, rss_mb, error_ratio)
    notes["error_ratio"] = error_ratio
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["notes"] = notes
    report_path = root / "bench" / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(out, indent=1))

    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {attempted} instances in {rounds} rounds, "
          f"{window:.2f} s window; {failed} failed, {wrong} wrong; "
          + ", ".join(f"{k}={v}" for k, v in notes.items() if k != "setup_runs_s"))
    for r in results:
        if r["outcome"] != "ok":
            print(f"#   {r['outcome']}: {r['case']} round {r['round']}: {r['detail']}")
    for p in problems:
        print(f"#   cross-check: {p}")
    if traced:
        print_shape_table(out["shape_table"])
        for layer, source in sources.items():
            if source == "probe":
                print(f"#   {layer}: not called by this workload; figures from the probe")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(f"# full report: {report_path.relative_to(root)}")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": out["metrics"]}
    print(json.dumps(result))
    return 0


def print_shape_table(rows):
    print("# shape table: instance form n m k d rows zero_rows cols strategies "
          "input_bytes verdict_s top-layer")
    for row in rows:
        top = max(row["self_s"].items(), key=lambda kv: kv[1], default=("-", 0.0))
        print(f"#   {row['instance']} {row['form']} {row['n']} {row['m']} {row['k']} "
              f"{row['d']} {row['rows']} {row['zero_rows']} {row['cols']} "
              f"{row['strategies']} {row['input_bytes']} {row['verdict_s']:.4f} "
              f"{top[0]}={top[1]:.4f}")
