"""``faascost simulate``: one bandwidth-control timeline (``--q``), or a
sweep of duration curves, one per period, with their breakpoints."""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from faascost import cli
from faascost.cli import CliError

_CURVE_COLUMNS = ("f", "quota_ms", "completion_ms", "ideal_ms", "n_throttles")


def _slug(number_text: str) -> str:
    # "2.5" -> "2_5" for filenames; trims a trailing ".0".
    text = number_text.strip()
    if text.endswith(".0"):
        text = text[:-2]
    return text.replace(".", "_")


def command(args: argparse.Namespace, run: cli._Run) -> None:
    task = cli.TaskSpec(cpu_time_ms=args.t)
    periods = cli._split_list(args.p)
    lagged = not args.exact_accounting
    sweep = args.q is None
    # A --format of None is csv (see ``_Run.rows``).
    cli._applies_to(args, "a sweep, not to a --q timeline", sweep,
                    breakpoints=False, mem_per_vcpu_mb=None, grid=200, f_lo=0.005, format=None)
    cli._applies_to(args, "the breakpoints that --breakpoints adds", args.breakpoints,
                    mem_per_vcpu_mb=None)

    if not sweep:
        # Single-run timeline mode.
        if len(periods) != 1:
            raise CliError("--q takes exactly one --p value")
        timeline = cli.simulate(
            task, cli._bandwidth_config(args, periods[0]), lagged_accounting=lagged
        )
        doc = timeline.as_dict()
        doc["closed_form_completion_ms"] = cli.closed_form_duration(
            task, periods[0], args.q
        )
        doc["n_throttles"] = len(timeline.throttle_durations_us)
        run.json(doc, "timeline.json")
        return

    run.require_dir()
    slugs: Dict[str, str] = {}  # file-name slug -> period
    for period in periods:
        slug = _slug(period)
        if slug in slugs:
            raise CliError(
                f"--p values {slugs[slug]!r} and {period!r} both name "
                f"duration_curve_p{slug}"
            )
        slugs[slug] = period
    fractions = cli.fraction_grid(args.grid, lo=args.f_lo)
    for slug, period in slugs.items():
        curve = cli.duration_curve(
            task,
            period,
            fractions,
            tick_hz=args.tick_hz,
            slice_ms=args.slice_ms,
            flavor=args.flavor,
            lagged_accounting=lagged,
        )
        run.rows(curve.points, _CURVE_COLUMNS, f"duration_curve_p{slug}")
        if args.breakpoints:
            rep = cli.quantization_breakpoints(
                curve, mem_per_vcpu_mb=args.mem_per_vcpu_mb
            )
            run.rows(rep.breakpoints, ["fraction", "completion_drop_ms", "memory_mb"],
                     f"breakpoints_p{slug}")
            for warning in rep.warnings:
                print(f"warning: P={period}: {warning}", file=sys.stderr)
