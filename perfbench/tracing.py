"""Spans around the layer functions ``faascost.cli`` calls, recorded in-process.

The tracer wraps module and class attributes for the length of one traced
round and puts them back afterwards; nothing inside ``src/`` is changed.
Calls made once per operation (an analysis, a sweep, a platform load) are
kept as spans: name, start, end, parent. Calls made once per record (each
``next()`` on the ingest generator, each sketch insert, each exact invoice)
would be millions of spans, so they are kept as leaf totals per parent span:
calls, busy time and work units. A span's self time is its duration minus
the time its child spans and leaf calls cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("ingest", "analysis", "sketch", "engine", "sched", "profiler")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[list] = []  # [span id, time covered by children]
        self.leaves: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.leaves_by_parent: Dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.sketch_entries = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": perf_counter()})
        self._stack.append([sid, 0.0])
        return sid

    def close(self, sid: int, units: int = 0) -> None:
        end = perf_counter()
        span = self.spans[sid]
        _, covered = self._stack.pop()
        span.update(end=end, units=units, self_s=end - span["start"] - covered)
        if self._stack:
            self._stack[-1][1] += end - span["start"]

    def leaf(self, name: str, seconds: float, units: int = 1) -> None:
        entry = self.leaves[name]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += units
        if self._stack:
            top = self._stack[-1]
            top[1] += seconds
            per_parent = self.leaves_by_parent[(top[0], name)]
            per_parent[0] += 1
            per_parent[1] += seconds

    # ------------------------------------------------------------- wrapping

    def patch(self, owner, attr: str, factory: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, factory(original))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_fn(self, name, units: Optional[Callable] = None) -> Callable:
        """``name`` is a string or a function of the call's (args, kwargs);
        ``units`` maps (result, args, kwargs) to the work done."""

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self.open(name(args, kwargs) if callable(name) else name)
                done = 0
                try:
                    result = fn(*args, **kwargs)
                    done = units(result, args, kwargs) if units else 0
                    return result
                finally:
                    self.close(sid, done)

            return wrapper

        return factory

    def leaf_fn(self, name: str) -> Callable:
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.leaf(name, perf_counter() - start)

            return wrapper

        return factory

    def leaf_generator(self, name: str) -> Callable:
        """Times every ``next()`` on the generator; units count items."""

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    start = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        self.leaf(name, perf_counter() - start, 0)
                        return
                    self.leaf(name, perf_counter() - start, 1)
                    yield item

            return wrapper

        return factory

    # -------------------------------------------------------------- results

    def write(self, path: Path) -> None:
        """Spans, then per-parent leaf totals, one JSON object a line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (parent, name), (calls, busy) in sorted(self.leaves_by_parent.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "busy_s": busy}) + "\n")

    def metrics(self) -> Dict[str, Optional[float]]:
        """Per-layer figures; None where this run never called the layer."""
        by_name: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for span in self.spans:
            entry = by_name[span["name"]]
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self_s"]
            entry[3] += span["units"]

        def rate(units: float, seconds: float) -> Optional[float]:
            return units / seconds if units and seconds > 0 else None

        def span_rate(name: str) -> Optional[float]:
            _, _, self_s, units = by_name.get(name, (0, 0.0, 0.0, 0))
            return rate(units, self_s)

        def leaf_rate(name: str, per: str = "calls") -> Optional[float]:
            calls, busy, units = self.leaves.get(name, (0, 0.0, 0))
            return rate(calls if per == "calls" else units, busy)

        out: Dict[str, Optional[float]] = {
            "ingest.rows_per_s": leaf_rate("ingest.next", per="units"),
            "sketch.inserts_per_s": leaf_rate("sketch.insert"),
            "sketch.entries": float(self.sketch_entries) or None,
            "platforms.load_s": by_name["platforms.resolve"][1] or None,
            "engine.normalize.calls_per_s": leaf_rate("engine.normalize"),
            "engine.compute_cost.records_per_s": leaf_rate("engine.compute_cost"),
            "engine.as_dict.records_per_s": leaf_rate("engine.as_dict"),
            "sched.curve.points_per_s": span_rate("sched.curve"),
            "sched.exact_curve.points_per_s": span_rate("sched.exact_curve"),
            "sched.simulate.segments_per_s": span_rate("sched.simulate"),
            "profiler.replay.reads_per_s": span_rate("profiler.replay"),
            "profiler.analyze.events_per_s": span_rate("profiler.analyze"),
            "profiler.events_csv.events_per_s": span_rate("profiler.events_csv"),
            "cli.self_s": by_name["cli.main"][2] or None,
        }
        for analysis in ("inflation", "correlation", "cold_start", "roundup"):
            out[f"analysis.{analysis}.rows_per_s"] = span_rate(f"analysis.{analysis}")
        for layer in LAYERS:
            prefix = layer + "."
            calls = sum(e[0] for n, e in by_name.items() if n.startswith(prefix))
            calls += sum(e[0] for n, e in self.leaves.items() if n.startswith(prefix))
            busy = sum(e[2] for n, e in by_name.items() if n.startswith(prefix))
            busy += sum(e[1] for n, e in self.leaves.items() if n.startswith(prefix))
            out[f"{layer}.self_s"] = busy if calls else None
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer functions as ``faascost.cli`` sees them."""
    from faascost import cli
    from faascost.billing import engine, model
    from faascost.traces import sketch

    t = tracer

    def inflation_units(report, args, kwargs):
        for sk in (report.vcpu_s_sketch, report.gb_s_sketch):
            if sk is not None:
                # GK keeps its entries in parallel lists; _values is one.
                t.sketch_entries += len(sk._values)
        return report.n

    def curve_name(args, kwargs):
        return "sched.curve" if kwargs.get("lagged_accounting", True) else "sched.exact_curve"

    t.patch(cli, "ingest_trace", t.leaf_generator("ingest.next"))
    t.patch(cli, "inflation_analysis", t.span_fn("analysis.inflation", inflation_units))
    t.patch(cli, "utilization_correlation", t.span_fn(
        "analysis.correlation", lambda r, a, k: r.n + r.skipped))
    t.patch(cli, "cold_start_differential", t.span_fn(
        "analysis.cold_start", lambda r, a, k: r.n_records))
    t.patch(cli, "rounding_up_stats", t.span_fn(
        "analysis.roundup", lambda r, a, k: r[0].n + r[0].n_skipped_short))
    t.patch(cli, "resolve_platform", t.span_fn("platforms.resolve"))
    t.patch(cli, "normalize_allocation", t.leaf_fn("engine.normalize"))
    t.patch(engine, "normalize_allocation", t.leaf_fn("engine.normalize"))
    t.patch(cli, "compute_cost", t.leaf_fn("engine.compute_cost"))
    t.patch(model.CostBreakdown, "as_dict", t.leaf_fn("engine.as_dict"))
    t.patch(sketch.QuantileSketch, "insert", t.leaf_fn("sketch.insert"))
    t.patch(sketch.QuantileSketch, "query", t.leaf_fn("sketch.query"))
    t.patch(cli, "duration_curve", t.span_fn(curve_name, lambda r, a, k: len(r.points)))
    t.patch(cli, "simulate", t.span_fn("sched.simulate", lambda r, a, k: len(r.segments)))
    t.patch(cli, "quantization_breakpoints", t.span_fn("sched.breakpoints"))
    t.patch(cli, "closed_form_duration", t.span_fn("sched.closed_form"))
    t.patch(cli, "replay_probe", t.span_fn(
        "profiler.replay", lambda r, a, k: r.loop_iterations))
    t.patch(cli, "analyze_events", t.span_fn(
        "profiler.analyze", lambda r, a, k: len(a[0])))
    t.patch(cli, "events_to_csv", t.span_fn(
        "profiler.events_csv", lambda r, a, k: len(a[0])))
    t.patch(cli, "events_from_csv", t.span_fn(
        "profiler.events_csv", lambda r, a, k: len(r)))
    t.patch(cli, "fingerprint_report", t.span_fn("profiler.report"))
