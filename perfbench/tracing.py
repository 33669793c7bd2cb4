"""Spans and evaluation counters for the traced benchmark run.

Nothing here patches the ``twometric`` package.  Counters wrap the objects a
caller hands to the library: a ``dataclasses.replace``d space or map, an
instance attribute ``d`` on a copy of a finite table, a wrapped planar map for
the certifier, a wrapped ``phi`` for a quasi space.

A traced check records a tree of spans.  A CLI call is one span; the library
calls that replay its parts on the same inputs are its children.  Because the
replays run after the call they stand for, "child" is a logical relation: the
self time of a span is its wall time minus the wall time of its children.
Time spent inside a metric kernel (``d_batch``, or the scalar coordinate
metric) is measured by the wrappers and credited to the ``spaces`` layer.
"""

from __future__ import annotations

import copy
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

COUNTS = ("d_batch_calls", "d_batch_rows", "d_batch_bytes", "d_scalar_calls",
          "map_calls", "phi_calls", "kernel_s")
LAYERS = ("core", "spaces", "lines", "dynamics", "quasi", "certify", "cli")


@dataclass(eq=False)
class Span:
    name: str                  # "<layer>.<call>", e.g. "core.audit"
    parent: "Span | None"
    counted: bool              # False for CLI calls, whose internals are not wrapped
    wall: float = 0.0
    counts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def kernel(self) -> float:
        if self.counted:
            return self.counts["kernel_s"]
        return sum(c.kernel() for c in self.children)


class Tracer:
    """Holds the running counters and the span trees of the current check."""

    def __init__(self):
        self.totals = dict.fromkeys(COUNTS, 0)
        self.roots: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Span | None = None, counted: bool = True):
        s = Span(name, parent, counted)
        (parent.children if parent is not None else self.roots).append(s)
        before = dict(self.totals)
        t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.wall = time.perf_counter() - t0
            s.counts = {k: self.totals[k] - before[k] for k in COUNTS}

    # -- wrappers installed from outside the package ------------------------

    def counting(self, fn, key: str):
        totals = self.totals

        def wrapped(*args):
            totals[key] += 1
            return fn(*args)
        return wrapped

    def timed_metric(self, fn):
        """Scalar coordinate metric: counted and timed as kernel work."""
        totals = self.totals

        def wrapped(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            totals["kernel_s"] += time.perf_counter() - t0
            totals["d_scalar_calls"] += 1
            return out
        return wrapped

    def timed_batch(self, fn):
        """Batch kernel: calls, rows, and bytes computed from array shapes."""
        totals = self.totals

        def wrapped(X, Y, Z):
            t0 = time.perf_counter()
            out = fn(X, Y, Z)
            totals["kernel_s"] += time.perf_counter() - t0
            totals["d_batch_calls"] += 1
            totals["d_batch_rows"] += len(out)
            totals["d_batch_bytes"] += sum(np.asarray(a).nbytes for a in (X, Y, Z, out))
            return out
        return wrapped

    def space(self, space):
        """A ``TwoMetricSpace`` with counted ``d`` and ``d_batch``."""
        batch = None if space.d_batch is None else self.timed_batch(space.d_batch)
        return replace(space, d=self.timed_metric(space.d), d_batch=batch)

    def finite(self, table):
        """A copy of a ``FiniteTwoMetricSpace`` whose lookups are counted.

        The copy shares the table; ``phi``, ``as_space`` and the line and
        quotient routines all read ``self.d``, so the instance attribute
        sees every evaluation.  Lookups are counted, not timed: they are the
        table layer's own work.
        """
        counted = copy.copy(table)
        counted.d = self.counting(table.d, "d_scalar_calls")
        return counted

    def map(self, map_):
        return replace(map_, f=self.counting(map_.f, "map_calls"),
                       space=self.space(map_.space))

    def quasi(self, space):
        return replace(space, phi=self.counting(space.phi, "phi_calls"))


def span(tr: Tracer | None, name: str, parent: Span | None = None, counted: bool = True):
    """``tr.span(...)`` when tracing, else a no-op context yielding None."""
    return nullcontext() if tr is None else tr.span(name, parent, counted)


# ---------------------------------------------------------------------------
# per-check summaries and per-layer metrics
# ---------------------------------------------------------------------------

def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s.children)


def _counted_outermost(s: Span) -> bool:
    p = s.parent
    while p is not None:
        if p.counted:
            return False
        p = p.parent
    return s.counted


# Count metrics of one layer: (metric, counter), read off the outermost span
# of that layer (or of that call) in each check.
LAYER_COUNTS = {"lines.enumerate": ("lines.enumerate_d_calls", "d_scalar_calls"),
                "dynamics": ("dynamics.map_calls", "map_calls"),
                "certify": ("certify.map_calls", "map_calls"),
                "quasi": ("quasi.phi_calls", "phi_calls")}


def summarize(roots: list[Span]) -> dict:
    """Self time per layer and the metric contributions of one check."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    m = Counter()
    for s in _walk(roots):
        wall_self = max(s.wall - sum(c.wall for c in s.children), 0.0)
        kern_self = max(s.kernel() - sum(c.kernel() for c in s.children), 0.0)
        kern_self = min(kern_self, wall_self)
        self_s[s.layer] += wall_self - kern_self
        self_s["spaces"] += kern_self
        m[s.name + "_s"] += s.wall
        if s.layer == "cli":
            m["cli.overhead_s"] += wall_self
        m.update(s.info)
        if _counted_outermost(s):
            for key in ("d_batch_calls", "d_batch_rows", "d_scalar_calls"):
                m["core." + key] += s.counts[key]
            m["_bytes"] += s.counts["d_batch_bytes"]
        if s.parent is None or s.parent.layer != s.layer:
            metric = LAYER_COUNTS.get(s.name) or LAYER_COUNTS.get(s.layer)
            if metric:
                m[metric[0]] += s.counts[metric[1]]
    return {"self": self_s, "metrics": m}


def _shares(self_totals: dict) -> dict:
    total = sum(self_totals.values())
    return {layer: (v / total if total > 0 else 0.0) for layer, v in self_totals.items()}


def layer_metrics(records: list[dict], per_layer: list[dict]) -> dict:
    """Average the per-check summaries into the named per-layer metrics.

    ``records`` hold ``summary``, ``untraced_s`` and ``traced_s`` per traced
    check.  Times and counts are per traced check (a check that never calls
    a layer contributes 0); shares are of summed self time.
    """
    n = len(records)
    sums = Counter()
    for r in records:
        sums.update(r["summary"]["metrics"])
    out = {key: value / n for key, value in sums.items() if not key.startswith("_")}
    rows = sums.get("core.d_batch_rows", 0)
    out["spaces.kernel_bytes_per_row"] = sums.get("_bytes", 0) / rows if rows else 0.0

    def self_totals(rs):
        tot = dict.fromkeys(LAYERS, 0.0)
        for r in rs:
            for layer, v in r["summary"]["self"].items():
                tot[layer] += v
        return tot

    for layer, share in _shares(self_totals(records)).items():
        out[f"{layer}.self_share"] = share
    slow = sorted(records, key=lambda r: r["untraced_s"])[-max(1, math.ceil(n / 10)):]
    for layer, share in _shares(self_totals(slow)).items():
        out[f"{layer}.slow_decile_share"] = share
    out["trace.overhead_ratio"] = (sum(r["untraced_s"] for r in records)
                                   / sum(r["traced_s"] for r in records))
    names = [m["name"] for m in per_layer]
    return {name: out.get(name, 0.0) for name in names}


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def rate(fn, units: float, repeats: int = 5) -> float:
    """Median of ``units`` per second over repeated calls of ``fn``."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)
