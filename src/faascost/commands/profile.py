"""``faascost profile``: the throttle probe, live (``run``) or on a simulated
timeline (``replay``), and the fingerprint of a saved event log
(``analyze``, ``report``)."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional

from faascost import cli
from faascost.cli import CliError


def _write_probe_result(result, run: cli._Run) -> None:
    path = run.target("events.csv")
    if path is None:
        cli.events_to_csv(result.events, sys.stdout)
        return
    cli.events_to_csv(result.events, str(path))
    summary = {
        "n_events": len(result.events),
        "total_runtime_ms": result.total_runtime_ms,
        "truncated": result.truncated,
        "loop_iterations": result.loop_iterations,
        "notes": list(result.notes),
    }
    run.json(summary, "probe_summary.json")


def _runtime_for(events_path: Path, run: cli._Run, runtime_ms: Optional[float],
                 events) -> float:
    if runtime_ms is not None:
        return runtime_ms
    sidecar = events_path.with_name("probe_summary.json")
    if sidecar.exists():
        try:
            text = run.input(str(sidecar)).read_text(encoding="utf-8")
            runtime_ms = float(json.loads(text)["total_runtime_ms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{sidecar}: expected a JSON object with a numeric "
                           f"'total_runtime_ms'") from exc
        if not math.isfinite(runtime_ms):
            raise CliError(f"{sidecar}: total_runtime_ms must be finite")
        return runtime_ms
    if not events:
        raise CliError("--runtime-ms is required when the event log is empty")
    fallback = events[-1].detected_at_ms
    print(
        f"warning: no --runtime-ms given; using last event time "
        f"{fallback:.3f} ms as the total runtime",
        file=sys.stderr,
    )
    return fallback


def _load_reference(source: Optional[Path]) -> Dict[str, cli.ReferenceSchedParams]:
    if source is None:
        return cli.PUBLISHED_PLATFORM_SCHEDULERS
    doc = cli._read_yaml(source)
    if not isinstance(doc, dict):
        raise CliError(f"{source}: reference table must map platform -> parameters")
    table = {}
    for platform, params in doc.items():
        if not isinstance(params, dict):
            raise CliError(
                f"{source}: {platform}: expected a mapping with period_ms and tick_hz"
            )
        for key in ("period_ms", "tick_hz"):
            if key not in params:
                raise CliError(f"{source}: {platform}: missing {key!r}")
        unknown = [key for key in params if key not in ("period_ms", "tick_hz")]
        if unknown:
            raise CliError(f"{source}: {platform}: unknown keys {unknown}: an entry "
                           "takes period_ms and tick_hz only")
        period, tick = params["period_ms"], params["tick_hz"]
        try:
            period_ms, tick_hz = float(period), int(tick)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"{source}: {platform}: period_ms and tick_hz must be numbers") from exc
        # A bool reads as 0 or 1, and int() truncates a fractional tick rate.
        if isinstance(period, bool) or not (math.isfinite(period_ms) and period_ms > 0):
            raise CliError(f"{source}: {platform}: period_ms must be finite and positive")
        if isinstance(tick, bool) or tick_hz <= 0 or isinstance(tick, float) and tick != tick_hz:
            raise CliError(f"{source}: {platform}: tick_hz must be a positive whole number")
        table[platform] = cli.ReferenceSchedParams(platform, period_ms, tick_hz)
    return table


def command(args: argparse.Namespace, run: cli._Run) -> None:
    if args.action == "run":
        cfg = cli.ProbeConfig(
            exec_duration_ms=args.duration_ms, gap_threshold_us=args.gap_threshold_us
        )
        _write_probe_result(cli.probe(cfg), run)
        return

    if args.action == "replay":
        task = cli.TaskSpec(cpu_time_ms=args.t)
        timeline = cli.simulate(task, cli._bandwidth_config(args, args.p))
        cfg = cli.ProbeConfig(
            exec_duration_ms=timeline.completion_ms,
            gap_threshold_us=args.gap_threshold_us,
        )
        result = cli.replay_probe(timeline, cfg, step_us=args.step_us)
        _write_probe_result(result, run)
        return

    # analyze and report both start from a saved event log.
    events_path = run.input(getattr(args, "in"))
    events = cli.events_from_csv(str(events_path))
    runtime_ms = _runtime_for(events_path, run, args.runtime_ms, events)
    fingerprint = cli.analyze_events(
        events, runtime_ms, alignment_tol_us=args.alignment_tol_us
    )
    if args.action == "analyze":
        run.json(fingerprint.as_dict(), "fingerprint.json")
    else:
        reference = _load_reference(run.input(args.reference))
        run.json(cli.fingerprint_report(fingerprint, reference=reference), "report.json")
