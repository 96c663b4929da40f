"""Command line front end: bill, analyze, simulate, profile.

Results are plain CSV/JSON files written into ``--out-dir``; without it a
command with a single result writes it to stdout, and one with several
(``analyze``, the ``simulate`` sweep) refuses to run. A command that
succeeds with an output directory also writes ``run.json`` there: the
subcommand, resolved config paths, the seed (``analyze`` only; null for
the rest), SHA-256 digests of every input file, the output paths relative
to that directory and the tool version, so a result directory is
self-describing. Files are written under a ``.partial`` name and take their
final names only when the command succeeds, so a command that fails leaves
no output file, no manifest and no directory of its own making. Given
identical inputs and seed, output files are byte-identical across reruns;
the manifest's ``wall_time_s`` field is the one exception.

Each command imports only the layers it runs, so ``simulate`` starts
without billing, traces or PyYAML. One rule binds the names taken from the
layers: the first read of ``faascost.cli.<name>`` imports that name's layer
and binds the name, and the commands read every such name as an attribute
of this module. A patch on ``faascost.cli.<name>``, made before or after
that first read, is therefore what the commands call.
"""

from __future__ import annotations

import argparse
import csv
import contextlib
import importlib
import json
import os
import sys
import time
from decimal import Decimal
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from faascost import __version__

_cli = sys.modules[__name__]

#: The names this module takes from each layer module, each bound on first read.
_LAYER_NAMES: Dict[str, Sequence[str]] = {
    "faascost.money": ("usd_string",),
    "faascost.billing": (
        "BillingError",
        "compute_cost",
        "fee_equivalent_walltime",
        "normalize_allocation",
        "resolve_platform",
        "resolve_platform_path",
    ),
    "faascost.billing.engine": ("TraceBilling",),
    "faascost.billing.model": ("allocation",),
    "faascost.traces.ingest": ("IngestStats", "ingest_trace"),
    "faascost.traces.records": ("InvocationRecord", "SchemaMap"),
    "faascost.traces.analysis": (
        "RoundingPolicy",
        "cold_start_differential",
        "inflation_analysis",
        "rounding_up_stats",
        "utilization_correlation",
    ),
    "faascost.sched": (
        "BandwidthControlConfig",
        "TaskSpec",
        "closed_form_duration",
        "duration_curve",
        "fraction_grid",
        "ideal_ms",
        "quantization_breakpoints",
        "quota_grid",
        "simulate",
    ),
    "faascost.sched.types": ("to_us",),
    "faascost.profiler": (
        "ProbeConfig",
        "PUBLISHED_PLATFORM_SCHEDULERS",
        "ReferenceSchedParams",
        "analyze_events",
        "events_from_csv",
        "events_to_csv",
        "fingerprint_report",
        "probe",
        "replay_probe",
    ),
}
_ALIASES = {"analyze_events": "analyze"}
_OWNERS = {name: module for module, names in _LAYER_NAMES.items() for name in names}


def __getattr__(name: str):
    # The first read of ``cli.<name>`` (PEP 562) imports its layer and binds it.
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(_OWNERS[name])
    value = globals()[name] = getattr(layer, _ALIASES.get(name, name))
    return value


_ANALYSES = ("inflation", "correlation", "cold-start", "roundup")
_BILL_COLUMNS = (
    "function_id",
    "instance_id",
    "arrival_ts_ms",
    "exec_duration_ms",
    "billable_time_ms",
    "fee_usd",
    "alloc_usd",
    "usage_usd",
    "total_usd",
)
# The columns that depend only on what a record is billed for.
_PRICED_COLUMNS = _BILL_COLUMNS[4:]
#: Distinct billing keys whose priced columns ``bill --records`` keeps; a
#: record with a new key past this many is priced on its own.
BILL_KEYS_CAP = 2**16
_INFLATION_COLUMNS = (
    "platform",
    "n",
    "mean_inflation_cpu",
    "mean_inflation_mem",
    "actual_vcpu_s_total",
    "billable_vcpu_s_total",
    "actual_gb_s_total",
    "billable_gb_s_total",
)
_SKETCH_STATS = ("mean", "p50", "p90", "p99")


class CliError(ValueError):
    """Raised for usage problems detected after argument parsing."""


# ------------------------------------------------------------------- run


def _sha256(path: Path) -> str:
    # Imported here: OpenSSL is mapped only by a command that digests an input.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """One command's inputs and outputs, and the ``run.json`` that lists them.

    Outputs go into ``--out-dir``, made on first write, or to stdout when
    there is none. Files are staged as ``<name>.partial`` beside their final
    paths, for :meth:`commit` to rename or :meth:`discard` to delete, with
    the directories made for them.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.out_dir = Path(args.out_dir) if args.out_dir else None
        self.config_paths: List[Path] = []
        self.inputs: List[Path] = []
        self.outputs: Dict[Path, Path] = {}  # final path -> staging file
        self.made_dirs: List[Path] = []  # parents before children

    def require_dir(self) -> None:
        if self.out_dir is None:
            raise CliError("this command writes multiple files; pass --out-dir")

    def input(self, path: Optional[str]) -> Optional[Path]:
        """Record an input file named on the command line; None passes through."""
        if path is None:
            return None
        self.inputs.append(Path(path))
        return self.inputs[-1]

    def platform(self, name: str):
        """The named platform's config; its path goes into the manifest."""
        self.config_paths.append(_cli.resolve_platform_path(name, self.args.config_dir))
        return _cli.resolve_platform(name, self.args.config_dir)

    def target(self, name: str, path: Optional[Path] = None) -> Optional[Path]:
        """The staging file of output ``name`` at ``path``, else in ``out_dir``;
        None is stdout."""
        if path is None:
            if self.out_dir is None:
                return None
            path = self.out_dir / name
        missing = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.made_dirs.extend(reversed(missing))
        return self.outputs.setdefault(path, path.with_name(path.name + ".partial"))

    def json(self, doc, name: str, path: Optional[Path] = None) -> None:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = self.target(name, path)
        if path is None:
            sys.stdout.write(text)
        else:
            path.write_text(text)

    def rows(self, rows: Iterable[dict], fieldnames: Sequence[str], stem: str) -> None:
        """Rows as CSV or as one JSON array, each row written as it comes."""
        path = self.target(f"{stem}.{self.args.format}")
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
            if self.args.format == "json":
                _write_json_array(fh, rows)
                return
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows([row[name] for name in fieldnames] for row in rows)

    def commit(self) -> None:
        """Stage ``run.json``, then give every staged output its final name."""
        if self.out_dir is not None:
            manifest = {
                "subcommand": self.args.command,
                "tool_version": __version__,
                "seed": getattr(self.args, "seed", None),
                "config_paths": sorted(str(p) for p in self.config_paths),
                "input_digests": {str(p): _sha256(p) for p in sorted(self.inputs)},
                # Relative to out_dir, where run.json is: `--out` may point elsewhere.
                "outputs": sorted(os.path.relpath(p, self.out_dir) for p in self.outputs),
                "wall_time_s": round(time.monotonic() - self.started, 6),
            }
            self.json(manifest, "run.json")
        for path, staged in self.outputs.items():
            os.replace(staged, path)

    def discard(self) -> None:
        """Delete the staged outputs still there, all of them after a failure,
        then each directory made for them that is left empty."""
        for staged in self.outputs.values():
            staged.unlink(missing_ok=True)
        for directory in reversed(self.made_dirs):
            with contextlib.suppress(OSError):  # not empty: it holds outputs
                directory.rmdir()


# ---------------------------------------------------------------- helpers


def _write_json_array(fh, rows: Iterable[dict]) -> None:
    """``json.dumps(list(rows), indent=2, sort_keys=True)`` and a newline,
    written one row at a time."""
    opener = "[\n  "
    for row in rows:
        # A JSON string holds no raw newline: each line of the row is indented.
        fh.write(opener + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n  "))
        opener = ",\n  "
    fh.write("[]\n" if opener == "[\n  " else "\n]\n")


def _slug(number_text: str) -> str:
    # "2.5" -> "2_5" for filenames; trims a trailing ".0".
    text = number_text.strip()
    if text.endswith(".0"):
        text = text[:-2]
    return text.replace(".", "_")


def _split_list(raw: str) -> List[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise CliError(f"empty list argument: {raw!r}")
    return items


def _read_yaml(source: Path):
    """The YAML document in ``source``; malformed YAML is a CliError naming it."""
    import yaml

    with open(source, "rb") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            from faascost.billing.platforms import yaml_problem

            raise CliError(f"{source}: not valid YAML: {yaml_problem(exc)}") from None


def _load_schema(source: Optional[Path]) -> Optional[SchemaMap]:
    if source is None:
        return None
    import dataclasses

    if source.suffix == ".json":
        with open(source, "rb") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise CliError(f"{source}: not valid JSON: {exc}") from None
    else:
        doc = _read_yaml(source)
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
        raise CliError(f"{source}: schema file must be a mapping with a 'columns' mapping")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(_cli.SchemaMap)})
    if unknown:
        raise CliError(f"{source}: unknown schema keys: {unknown}")
    try:
        return _cli.SchemaMap(**doc)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{source}: {exc}") from exc


# ------------------------------------------------------------------ bill


def _bill_row(record, config, alloc) -> dict:
    breakdown = _cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    return {
        "function_id": record.function_id,
        "instance_id": record.instance_id,
        "arrival_ts_ms": record.arrival_ts_ms,
        "exec_duration_ms": record.exec_duration_ms,
        "billable_time_ms": doc["billable_time_ms"],
        "fee_usd": doc["fee_usd"],
        "alloc_usd": _cli.usd_string(
            sum((usd for _, usd in breakdown.alloc_terms.values()), Decimal(0))
        ),
        "usage_usd": _cli.usd_string(
            sum((usd for _, usd in breakdown.usage_terms.values()), Decimal(0))
        ),
        "total_usd": doc["total_usd"],
    }


def _bill_rows(records: Iterable[InvocationRecord], config, normalize: bool) -> Iterator[dict]:
    """:func:`_bill_row` of each record, priced once per distinct billing key.

    The key is the record's :class:`TraceBilling` key. Every record with
    that key has the same billable quantities, so the same priced columns;
    a record without a key is priced on its own.
    """
    billing = _cli.TraceBilling(config, normalize=normalize)
    priced: Dict[tuple, tuple] = {}
    for record in records:
        key = billing.key(record)
        strings = priced.get(key)
        if strings is not None:
            yield dict(zip(_BILL_COLUMNS, (
                record.function_id,
                record.instance_id,
                record.arrival_ts_ms,
                record.exec_duration_ms,
                *strings,
            )))
            continue
        granted = billing.grant(record.alloc_vcpus, record.alloc_memory_mb)[0]
        row = _bill_row(record, config, granted)
        if key is not None and len(priced) < BILL_KEYS_CAP:
            # Interned, so the fee and repeated amounts are stored once.
            priced[key] = tuple(sys.intern(row[name]) for name in _PRICED_COLUMNS)
        yield row


def cmd_bill(args: argparse.Namespace, run: _Run) -> None:
    config = run.platform(args.platform)
    normalize = not args.no_normalize

    if args.records is not None:
        records_path = run.input(args.records)
        schema = _load_schema(run.input(args.schema))
        rows = _bill_rows(_cli.ingest_trace(records_path, schema), config, normalize)
        run.rows(rows, _BILL_COLUMNS, "bills")
        return

    alloc = _cli.allocation(vcpus=str(args.vcpus), memory_mb=str(args.mem_mb))
    if normalize:
        alloc = _cli.normalize_allocation(alloc, config)
    record = _cli.InvocationRecord(
        function_id="cli",
        instance_id="cli-0",
        arrival_ts_ms=0.0,
        exec_duration_ms=args.exec_ms,
        init_duration_ms=args.init_ms,
        is_cold_start=args.init_ms > 0,
        alloc_vcpus=float(alloc.vcpus),
        alloc_memory_mb=float(alloc.memory_mb),
        cpu_usage_avg_vcpus=args.cpu_avg_vcpus,
        mem_usage_mb=args.mem_used_mb,
    )
    # The exact allocation is billed, not the record's floats.
    breakdown = _cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    doc["platform"] = config.name
    doc["alloc"] = {"vcpus": str(alloc.vcpus), "memory_mb": str(alloc.memory_mb)}
    try:
        doc["fee_equivalent_walltime_ms"] = f"{_cli.fee_equivalent_walltime(config, alloc):.6f}"
    except _cli.BillingError:
        pass
    run.json(doc, "bill.json")


# --------------------------------------------------------------- analyze


def cmd_analyze(args: argparse.Namespace, run: _Run) -> None:
    run.require_dir()
    trace_path = run.input(args.trace)
    schema = _load_schema(run.input(args.schema))
    analyses = _split_list(args.analyses)
    for name in analyses:
        if name not in _ANALYSES:
            raise CliError(f"unknown analysis {name!r}; choose from {_ANALYSES}")
    # Imported before the records are read. Compiling the module, when no
    # bytecode is cached, allocates and frees about 1.7 MB; on top of a held
    # 20k-row trace that was 0.8 MB more peak RSS.
    importlib.import_module("faascost.traces.analysis")

    stats = _cli.IngestStats()
    records = list(
        _cli.ingest_trace(trace_path, schema, drop_zero_cpu=args.drop_zero_cpu, stats=stats)
    )
    report: Dict[str, object] = {
        "trace": str(trace_path),
        "n_records": len(records),
        "ingest": {
            "rows_read": stats.rows_read,
            "malformed_skipped": stats.malformed_skipped,
            "zero_cpu_filtered": stats.zero_cpu_filtered,
        },
    }
    # Each block writes its files and returns only its report.json entry, so
    # what an analysis built beyond that is freed before the next one runs.
    if "inflation" in analyses:
        report["inflation"] = _analyze_inflation(records, args, run)
    if "correlation" in analyses:
        report["correlation"] = _analyze_correlation(records, args, run)
    if "cold-start" in analyses:
        report["cold_start"] = _analyze_cold_start(records, args, run)
    if "roundup" in analyses:
        report["rounding_up"] = _analyze_roundup(records, args, run)
    run.json(report, "report.json")


def _analyze_inflation(records: list, args: argparse.Namespace, run: _Run) -> List[dict]:
    rows = []
    blocks = []
    for name in _split_list(args.platforms):
        rep = _cli.inflation_analysis(records, run.platform(name), mapping=args.mapping)
        doc = rep.as_dict()
        blocks.append(doc)
        row = {key: doc[key] for key in _INFLATION_COLUMNS}
        for prefix in ("billable_vcpu_s", "billable_gb_s"):
            block = doc[prefix] or {}
            for stat in _SKETCH_STATS:
                row[f"{prefix}_{stat}"] = block.get(stat)
        rows.append(row)
    run.rows(rows, list(rows[0]), "inflation")
    return blocks


def _analyze_correlation(records: list, args: argparse.Namespace, run: _Run) -> dict:
    corr = _cli.utilization_correlation(records, seed=args.seed)
    if corr.undefined:
        print(f"warning: correlation undefined: {corr.undefined}", file=sys.stderr)
    doc = corr.as_dict()
    run.rows([doc], list(doc), "utilization_correlation")
    if corr.scatter_x:
        srows = (
            {"cpu_utilization": x, "mem_utilization": y}
            for x, y in zip(corr.scatter_x, corr.scatter_y)
        )
        run.rows(srows, ["cpu_utilization", "mem_utilization"], "utilization_scatter")
    return doc


def _analyze_cold_start(records: list, args: argparse.Namespace, run: _Run) -> dict:
    cold = _cli.cold_start_differential(records, session_gap_ms=args.session_gap_ms)
    doc = cold.as_dict()
    row = {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}
    row["flags"] = ";".join(doc["flags"])
    run.rows([row], list(row), "cold_start")
    return doc


def _analyze_roundup(records: list, args: argparse.Namespace, run: _Run) -> List[dict]:
    policies = []
    for gran in _split_list(args.roundup_ms):
        name = f"{gran}ms"
        if args.roundup_cutoff_ms > 0:
            name += f"_min{args.roundup_cutoff_ms}ms"
        if args.roundup_mem_gb is not None:
            name += f"_mem{args.roundup_mem_gb}gb"
        policies.append(
            _cli.RoundingPolicy(name, float(gran), args.roundup_cutoff_ms, args.roundup_mem_gb)
        )
    docs = [s.as_dict() for s in _cli.rounding_up_stats(records, policies)]
    run.rows(docs, list(docs[0]), "rounding_up")
    return docs


# -------------------------------------------------------------- simulate


def _bandwidth_config(args: argparse.Namespace, period_ms: str) -> BandwidthControlConfig:
    """The config of one ``--q`` timeline: quota, tick rate, slice and flavor."""
    return _cli.BandwidthControlConfig(
        period_ms=period_ms,
        quota_ms=args.q,
        tick_hz=args.tick_hz,
        slice_ms=args.slice_ms,
        flavor=args.flavor,
    )


def cmd_simulate(args: argparse.Namespace, run: _Run) -> None:
    task = _cli.TaskSpec(cpu_time_ms=args.t)
    periods = _split_list(args.p)
    lagged = not args.exact_accounting

    if args.q is not None:
        # Single-run timeline mode.
        if len(periods) != 1:
            raise CliError("--q takes exactly one --p value")
        timeline = _cli.simulate(
            task, _bandwidth_config(args, periods[0]), lagged_accounting=lagged
        )
        doc = timeline.as_dict()
        doc["closed_form_completion_ms"] = _cli.closed_form_duration(
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
    fractions = _cli.fraction_grid(args.grid, lo=args.f_lo)
    for slug, period in slugs.items():
        stem = f"duration_curve_p{slug}"
        if args.closed_form_only:
            period_us = _cli.to_us(period, "period_ms")
            rows = [
                {
                    "f": f,
                    "quota_ms": quota_us / 1000.0,
                    "completion_ms": _cli.closed_form_duration(
                        task, period, Decimal(quota_us) / 1000
                    ),
                    "ideal_ms": _cli.ideal_ms(task, period_us, quota_us),
                }
                for f, quota_us in zip(fractions, _cli.quota_grid(period, fractions))
            ]
            run.rows(rows, ["f", "quota_ms", "completion_ms", "ideal_ms"], stem)
            continue
        curve = _cli.duration_curve(
            task,
            period,
            fractions,
            tick_hz=args.tick_hz,
            slice_ms=args.slice_ms,
            flavor=args.flavor,
            lagged_accounting=lagged,
        )
        fieldnames = ["f", "quota_ms", "completion_ms", "ideal_ms", "n_throttles"]
        run.rows(curve.csv_rows(), fieldnames, stem)
        if args.breakpoints:
            rep = _cli.quantization_breakpoints(
                curve, mem_per_vcpu_mb=args.mem_per_vcpu_mb
            )
            brows = [
                {
                    "fraction": b.fraction,
                    "completion_drop_ms": b.completion_drop_ms,
                    "memory_mb": b.memory_mb,
                }
                for b in rep.breakpoints
            ]
            run.rows(
                brows,
                ["fraction", "completion_drop_ms", "memory_mb"],
                f"breakpoints_p{slug}",
            )
            for warning in rep.warnings:
                print(f"warning: P={period}: {warning}", file=sys.stderr)


# --------------------------------------------------------------- profile


def _write_probe_result(result, args: argparse.Namespace, run: _Run) -> None:
    path = run.target("events.csv", None if args.out is None else Path(args.out))
    if path is None:
        _cli.events_to_csv(result.events, sys.stdout)
        return
    _cli.events_to_csv(result.events, str(path))
    summary = {
        "n_events": len(result.events),
        "total_runtime_ms": result.total_runtime_ms,
        "truncated": result.truncated,
        "loop_iterations": result.loop_iterations,
        "notes": list(result.notes),
    }
    run.json(summary, "probe_summary.json", path.with_name("probe_summary.json"))


def _runtime_for(events_path: Path, run: _Run, runtime_ms: Optional[float], events) -> float:
    if runtime_ms is not None:
        return runtime_ms
    sidecar = events_path.with_name("probe_summary.json")
    if sidecar.exists():
        try:
            return float(json.loads(run.input(str(sidecar)).read_text())["total_runtime_ms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{sidecar}: expected a JSON object with a numeric "
                           f"'total_runtime_ms'") from exc
    if not events:
        raise CliError("--runtime-ms is required when the event log is empty")
    fallback = events[-1].detected_at_ms
    print(
        f"warning: no --runtime-ms given; using last event time "
        f"{fallback:.3f} ms as the total runtime",
        file=sys.stderr,
    )
    return fallback


def _load_reference(source: Optional[Path]) -> Dict[str, ReferenceSchedParams]:
    if source is None:
        return _cli.PUBLISHED_PLATFORM_SCHEDULERS
    doc = _read_yaml(source)
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
        try:
            period_ms, tick_hz = float(params["period_ms"]), int(params["tick_hz"])
        except (TypeError, ValueError) as exc:
            raise CliError(f"{source}: {platform}: period_ms and tick_hz must be numbers") from exc
        table[platform] = _cli.ReferenceSchedParams(
            platform=platform, period_ms=period_ms, tick_hz=tick_hz,
            note=str(params.get("note", "")),
        )
    return table


def cmd_profile(args: argparse.Namespace, run: _Run) -> None:
    if args.action == "run":
        cfg = _cli.ProbeConfig(
            exec_duration_ms=args.duration_ms, gap_threshold_us=args.gap_threshold_us
        )
        _write_probe_result(_cli.probe(cfg), args, run)
        return

    if args.action == "replay":
        task = _cli.TaskSpec(cpu_time_ms=args.t)
        timeline = _cli.simulate(task, _bandwidth_config(args, args.p))
        cfg = _cli.ProbeConfig(
            exec_duration_ms=timeline.completion_ms,
            gap_threshold_us=args.gap_threshold_us,
        )
        result = _cli.replay_probe(timeline, cfg, step_us=args.step_us)
        _write_probe_result(result, args, run)
        return

    # analyze and report both start from a saved event log.
    events_path = run.input(getattr(args, "in"))
    events = _cli.events_from_csv(str(events_path))
    runtime_ms = _runtime_for(events_path, run, args.runtime_ms, events)
    fingerprint = _cli.analyze_events(
        events, runtime_ms, alignment_tol_us=args.alignment_tol_us
    )
    if args.action == "analyze":
        run.json(fingerprint.as_dict(), "fingerprint.json")
    else:
        reference = _load_reference(run.input(args.reference))
        run.json(_cli.fingerprint_report(fingerprint, reference=reference), "report.json")


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faascost",
        description="Serverless billing, trace analytics, CPU bandwidth "
        "simulation, and scheduler fingerprinting.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=None, help="directory for output files")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="tabular output format (default csv)",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config-dir", default=None, help="extra config directory")
    inputs.add_argument("--schema", default=None, help="schema map YAML/JSON for the trace")
    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--tick-hz", type=int, default=250, help="scheduler tick rate")
    sched.add_argument("--slice-ms", default="5", help="EEVDF slice length")
    sched.add_argument("--flavor", choices=("cfs", "eevdf"), default="cfs")
    probe_out = argparse.ArgumentParser(add_help=False)
    probe_out.add_argument("--gap-threshold-us", type=int, default=500)
    probe_out.add_argument("--out", default=None, help="events CSV path")
    event_log = argparse.ArgumentParser(add_help=False)
    event_log.add_argument("--in", required=True, help="events CSV from run/replay")
    event_log.add_argument(
        "--runtime-ms",
        type=float,
        default=None,
        help="total on-CPU runtime; read from probe_summary.json when omitted",
    )
    event_log.add_argument("--alignment-tol-us", type=float, default=150.0)

    bill = sub.add_parser(
        "bill", parents=[out, table, inputs], help="price invocations under a platform config"
    )
    bill.add_argument("--platform", required=True, help="config name or YAML path")
    bill.add_argument("--records", default=None, help="trace CSV to bill in batch")
    bill.add_argument("--mem-mb", default="0", help="allocated memory in MB")
    bill.add_argument("--vcpus", default="0", help="allocated vCPUs")
    bill.add_argument("--exec-ms", type=float, default=0.0, help="execution time")
    bill.add_argument("--init-ms", type=float, default=0.0, help="init time")
    bill.add_argument(
        "--cpu-avg-vcpus", type=float, default=0.0, help="mean vCPUs consumed"
    )
    bill.add_argument(
        "--mem-used-mb", type=float, default=0.0, help="memory consumed in MB"
    )
    bill.add_argument(
        "--no-normalize",
        action="store_true",
        help="bill the allocation exactly as given instead of mapping it "
        "to the platform's knob grid first",
    )
    bill.set_defaults(func=cmd_bill)

    analyze = sub.add_parser(
        "analyze", parents=[out, table, inputs], help="run trace analytics"
    )
    analyze.add_argument("--trace", required=True, help="trace CSV (optionally .gz)")
    analyze.add_argument(
        "--seed", type=int, default=0, help="seed of the scatter sample (default 0)"
    )
    analyze.add_argument(
        "--analyses",
        default=",".join(_ANALYSES),
        help=f"comma list from {_ANALYSES} (default all)",
    )
    analyze.add_argument(
        "--platforms",
        default="aws_lambda",
        help="comma list of platform configs for the inflation analysis",
    )
    analyze.add_argument(
        "--mapping",
        choices=("normalize", "direct"),
        default="normalize",
        help="how to map trace allocations onto the platform's knobs",
    )
    analyze.add_argument(
        "--session-gap-ms",
        type=float,
        default=900_000.0,
        help="idle gap that splits an instance into billing sessions",
    )
    analyze.add_argument(
        "--roundup-ms", default="1,100", help="comma list of time granularities"
    )
    analyze.add_argument(
        "--roundup-cutoff-ms", type=float, default=0.0, help="minimum billed time"
    )
    analyze.add_argument(
        "--roundup-mem-gb",
        type=float,
        default=None,
        help="memory size granularity in GB for the roundup policies",
    )
    analyze.add_argument(
        "--drop-zero-cpu",
        action="store_true",
        help="drop records whose average CPU usage is exactly zero",
    )
    analyze.set_defaults(func=cmd_analyze)

    sim = sub.add_parser(
        "simulate", parents=[out, table, sched], help="CPU bandwidth-control models"
    )
    sim.add_argument("--t", required=True, help="task CPU time in ms")
    sim.add_argument(
        "--p", required=True, help="enforcement period in ms, or a comma list"
    )
    sim.add_argument(
        "--q", default=None, help="quota in ms; selects single-timeline mode"
    )
    sim.add_argument("--grid", type=int, default=200, help="points in the f sweep")
    sim.add_argument(
        "--f-lo", type=float, default=0.005, help="smallest vCPU fraction in the sweep"
    )
    sim.add_argument(
        "--exact-accounting",
        action="store_true",
        help="charge runtime continuously instead of at ticks; the curve "
        "then matches the closed form exactly",
    )
    sim.add_argument(
        "--closed-form-only",
        action="store_true",
        help="evaluate the closed-form duration instead of simulating",
    )
    sim.add_argument(
        "--breakpoints",
        action="store_true",
        help="also emit detected quantization breakpoints per period",
    )
    sim.add_argument(
        "--mem-per-vcpu-mb",
        type=float,
        default=None,
        help="annotate breakpoints with proportional-allocation memory sizes",
    )
    sim.set_defaults(func=cmd_simulate)

    prof = sub.add_parser("profile", help="scheduler fingerprinting")
    prof_sub = prof.add_subparsers(dest="action", required=True)

    prun = prof_sub.add_parser(
        "run", parents=[out, probe_out], help="run the live throttle probe"
    )
    prun.add_argument("--duration-ms", type=float, required=True)
    prun.set_defaults(func=cmd_profile, action="run")

    prep = prof_sub.add_parser(
        "replay",
        parents=[out, probe_out, sched],
        help="probe a simulated timeline instead of live CPU",
    )
    prep.add_argument("--t", required=True, help="task CPU time in ms")
    prep.add_argument("--p", required=True, help="enforcement period in ms")
    prep.add_argument("--q", required=True, help="quota in ms")
    prep.add_argument("--step-us", type=int, default=50)
    prep.set_defaults(func=cmd_profile, action="replay")

    pana = prof_sub.add_parser(
        "analyze", parents=[out, event_log], help="fingerprint a saved event log"
    )
    pana.set_defaults(func=cmd_profile, action="analyze")

    prev = prof_sub.add_parser(
        "report",
        parents=[out, event_log],
        help="fingerprint plus comparison against published schedulers",
    )
    prev.add_argument(
        "--reference",
        default=None,
        help="YAML table platform -> {period_ms, tick_hz} overriding the "
        "built-in published values",
    )
    prev.set_defaults(func=cmd_profile, action="report")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        args.func(args, run)
        run.commit()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.discard()
    return 0


if __name__ == "__main__":
    sys.exit(main())
