"""Spans and counts recorded around the benchmark's calls into steercert.

Spans stay in memory and are written once, when the run ends.  A span is
``(id, name, start, end, parent, instance)``.  A layer's self time is its
duration minus the durations of its children.  Calls made on the side to
split a layer (``certificates.build`` and ``core.nullspace`` after each
``decomposition_analysis``) are recorded as children of the span they
split: they run right after it, on the same input.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Per-layer time metrics, in the order they are reported.  Each becomes
# ``<layer>_s`` (self time summed over the run), ``<layer>_calls`` and
# ``<layer>_p50_s`` (median self time per call).
LAYERS = (
    "documents.parse",
    "assemblages.realize",
    "assemblages.verify_ns",
    "assemblages.canonicalize_pure",
    "certificates.build",
    "core.nullspace",
    "certificates.analysis",
    "assemblages.lhs_none",
    "assemblages.lhs_model",
    "channel_assemblages.to_choi",
    "channel_assemblages.verify_ns_channel",
    "channel_assemblages.verify_asym_ns",
    "security.pinning",
    "security.correlations",
    "cli.emit",
    "cli.interpreter",
    "cli.import",
)

# Probes timed once per interpreter start, not per instance.
PER_START = ("cli.interpreter", "cli.import")

# Per-layer counts, per traced round: name -> unit.
COUNTS = {
    "certificates.rows": "count",
    "certificates.zero_rows": "count",
    "certificates.cols": "count",
    "certificates.nullity": "count",
    "assemblages.lhs_strategies": "count",
    "assemblages.lhs_hidden_variables": "count",
    "assemblages.ns_violations": "count",
    "documents.input_bytes": "B",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    instance: str


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    @contextmanager
    def instance(self, label):
        yield

    def flush(self):
        pass

    def last_id(self):
        return 0

    def rename_last(self, name):
        pass

    def defer(self, parent, name, fn, *args, peak=False):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(list)  # name -> [(instance, value)]
        self.peaks_mb = []
        self._stack = [0]
        self._instance = ""
        self._next = 1
        self._deferred = []

    def call(self, name, fn, *args, **kwargs):
        with self._scope(name):
            return fn(*args, **kwargs)

    def rename_last(self, name):
        """Name the span just closed after its outcome (LHS found or not)."""
        self.spans[-1].name = name

    def last_id(self):
        return self.spans[-1].id

    def count(self, name, value):
        self.counts[name].append((self._instance, value))

    @contextmanager
    def instance(self, label):
        """Span of one verdict."""
        self._instance = label
        with self._scope("instance"):
            yield

    def flush(self):
        """Run the side calls deferred by the last instance, outside its
        timing, under its label."""
        try:
            for parent, name, fn, args, peak in self._deferred:
                self._side(parent, name, fn, args, peak)
        finally:
            self._deferred = []
            self._instance = ""

    @contextmanager
    def _scope(self, name):
        span_id = self._next
        self._next += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, self._stack[-1],
                                   self._instance))

    def defer(self, parent, name, fn, *args, peak=False):
        """Queue a side call attributed to span ``parent``; it runs at
        :meth:`flush`, so it adds nothing to the verdict time.  With
        ``peak`` it runs once more under ``tracemalloc`` for its peak."""
        self._deferred.append((parent, name, fn, args, peak))

    def _side(self, parent, name, fn, args, peak):
        start = time.perf_counter()
        fn(*args)
        end = time.perf_counter()
        self.spans.append(Span(self._next, name, start, end, parent, self._instance))
        self._next += 1
        if peak:  # a second, untimed call: tracemalloc slows allocation
            tracemalloc.start()
            try:
                fn(*args)
                self.peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()


    def record(self, name, start, end):
        """A span timed elsewhere, such as a subprocess probe."""
        self.spans.append(Span(self._next, name, start, end, 0, self._instance))
        self._next += 1

    def self_times(self):
        """name -> list of self times, one per span."""
        child_total = defaultdict(float)
        for s in self.spans:
            child_total[s.parent] += s.end - s.start
        out = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.end - s.start - child_total.get(s.id, 0.0))
        return out


def layer_metrics(tracer: Tracer, rounds: int, fallback: Tracer = None):
    """Per-layer metrics of a traced run, per traced round.

    Sums are divided by the number of traced rounds, so they describe one
    round of the workload and do not grow when a faster program fits more
    rounds into the window.  A layer the workload never calls takes its
    figures from ``fallback``, one pass of a fixed probe over small
    documents, so no figure is an empty zero.  ``cli.interpreter`` and
    ``cli.import`` are probes too: their figure is the median per start.
    Returns ``(metrics, sources)``.
    """
    own = tracer.self_times()
    spare = fallback.self_times() if fallback is not None else {}
    metrics, sources = {}, {}
    for layer in LAYERS:
        times, per, source = own.get(layer), rounds, "run"
        if not times:
            times, per, source = spare.get(layer, []), 1, "probe"
        p50 = statistics.median(times) if times else 0.0
        if layer in PER_START:
            per, total = 1, p50
        else:
            total = sum(times) / per
        sources[layer] = source
        metrics[f"{layer}_s"] = (total, "s")
        metrics[f"{layer}_calls"] = (len(times) / per, "count")
        metrics[f"{layer}_p50_s"] = (p50, "s")
    for name, unit in COUNTS.items():
        metrics[name] = (sum(v for _, v in tracer.counts.get(name, [])) / rounds, unit)
    rows = metrics["certificates.rows"][0]
    zero = metrics["certificates.zero_rows"][0]
    metrics["certificates.useful_row_ratio"] = ((rows - zero) / rows if rows else 0.0,
                                                "ratio")
    source = tracer if tracer.counts.get("security.key_positions") else fallback
    pinned = sum(v for _, v in source.counts.get("security.pinned", []))
    keyed = sum(v for _, v in source.counts.get("security.key_positions", []))
    metrics["security.pinned_share"] = (pinned / keyed if keyed else 0.0, "ratio")
    metrics["core.nullspace_peak_mb"] = (max(tracer.peaks_mb, default=0.0), "MB")
    return metrics, sources


def shape_table(tracer: Tracer, cases: dict):
    """One row per traced instance: its shape, counts and layer self times."""
    self_by_instance = defaultdict(lambda: defaultdict(float))
    child_total = defaultdict(float)
    for s in tracer.spans:
        child_total[s.parent] += s.end - s.start
    verdict = {}
    for s in tracer.spans:
        if s.name == "instance":
            verdict[s.instance] = s.end - s.start
        else:
            self_by_instance[s.instance][s.name] += s.end - s.start - child_total.get(s.id, 0.0)
    counts = defaultdict(dict)
    for name, values in tracer.counts.items():
        for label, value in values:
            counts[label][name] = counts[label].get(name, 0) + value
    rows = []
    for label, seconds in verdict.items():
        case = cases[label.split("#")[0]]
        c = counts.get(label, {})
        rows.append({
            "instance": label, "form": case.form, "n": case.n, "m": case.m,
            "k": case.k, "d": case.d, "command": " ".join(case.argv),
            "rows": c.get("certificates.rows", 0),
            "zero_rows": c.get("certificates.zero_rows", 0),
            "cols": c.get("certificates.cols", 0),
            "strategies": c.get("assemblages.lhs_strategies", 0),
            "input_bytes": c.get("documents.input_bytes", 0),
            "verdict_s": seconds,
            "self_s": dict(self_by_instance[label]),
        })
    return rows
