"""``faascost analyze``: the trace analyses, each into its own files, and
``report.json`` with every analysis's summary."""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List

from faascost import cli
from faascost.cli import CliError

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


def command(args: argparse.Namespace, run: cli._Run) -> None:
    run.require_dir()
    trace_path = run.input(args.trace)
    schema = cli._load_schema(run.input(args.schema))
    analyses = cli._split_list(args.analyses)
    for name in analyses:
        if name not in cli._ANALYSES:
            raise CliError(f"unknown analysis {name!r}; choose from {cli._ANALYSES}")
    # Imported before the records are read. Compiling the module, when no
    # bytecode is cached, allocates and frees about 1.7 MB; on top of a held
    # 20k-row trace that was 0.8 MB more peak RSS.
    importlib.import_module("faascost.traces.analysis")
    # The analyses' options and platforms are checked before the trace is read.
    left_out = "the {} analysis, which --analyses leaves out"
    cli._applies_to(args, left_out.format("inflation"), "inflation" in analyses,
                    platforms="aws_lambda", mapping="normalize", config_dir=None)
    cli._applies_to(args, left_out.format("correlation"), "correlation" in analyses, seed=0)
    cli._applies_to(args, left_out.format("cold-start"), "cold-start" in analyses,
                    session_gap_ms=900_000.0)
    cli._applies_to(args, left_out.format("roundup"), "roundup" in analyses,
                    roundup_ms="1,100", roundup_cutoff_ms=0.0, roundup_mem_gb=None)
    if "cold-start" in analyses:
        cli.check_session_gap(args.session_gap_ms)
    policies = _roundup_policies(args) if "roundup" in analyses else None
    if "inflation" in analyses:
        configs = [run.platform(name) for name in cli._split_list(args.platforms)]

    stats = cli.IngestStats()
    records = list(
        cli.ingest_trace(trace_path, schema, drop_zero_cpu=args.drop_zero_cpu, stats=stats)
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
        report["inflation"] = _analyze_inflation(records, configs, args.mapping, run)
    if "correlation" in analyses:
        report["correlation"] = _analyze_correlation(records, args, run)
    if "cold-start" in analyses:
        report["cold_start"] = _analyze_cold_start(records, args, run)
    if "roundup" in analyses:
        report["rounding_up"] = _analyze_roundup(records, policies, run)
    run.json(report, "report.json")


def _analyze_inflation(records: list, configs: list, mapping: str,
                       run: cli._Run) -> List[dict]:
    rows = []
    blocks = []
    prefixes = ("billable_vcpu_s", "billable_gb_s")
    # The consumed totals do not depend on the platform: the first pass sums
    # them and every later pass takes them from it.
    actual = None
    for config in configs:
        # The report is dropped at once: only its doc is held while the next
        # pass runs, not its exact value distributions.
        doc = cli.inflation_analysis(records, config, mapping=mapping, actual=actual).as_dict()
        actual = doc["actual_vcpu_s_total"], doc["actual_gb_s_total"]
        blocks.append(doc)
        rows.append([doc[key] for key in _INFLATION_COLUMNS]
                    + [(doc[p] or {}).get(stat) for p in prefixes for stat in _SKETCH_STATS])
    columns = [*_INFLATION_COLUMNS, *(f"{p}_{stat}" for p in prefixes for stat in _SKETCH_STATS)]
    run.rows(rows, columns, "inflation")
    return blocks


def _analyze_correlation(records: list, args: argparse.Namespace, run: cli._Run) -> dict:
    corr = cli.utilization_correlation(records, seed=args.seed)
    if corr.undefined:
        print(f"warning: correlation undefined: {corr.undefined}", file=sys.stderr)
    doc = corr.as_dict()
    run.rows([tuple(doc.values())], list(doc), "utilization_correlation")
    if corr.scatter_x:
        run.rows(zip(corr.scatter_x, corr.scatter_y), ["cpu_utilization", "mem_utilization"],
                 "utilization_scatter")
    return doc


def _analyze_cold_start(records: list, args: argparse.Namespace, run: cli._Run) -> dict:
    cold = cli.cold_start_differential(records, session_gap_ms=args.session_gap_ms)
    doc = cold.as_dict()
    row = {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}
    row["flags"] = ";".join(doc["flags"])
    run.rows([tuple(row.values())], list(row), "cold_start")
    return doc


def _roundup_policies(args: argparse.Namespace) -> list:
    policies = []
    for gran in cli._split_list(args.roundup_ms):
        name = f"{gran}ms"
        if args.roundup_cutoff_ms > 0:
            name += f"_min{args.roundup_cutoff_ms}ms"
        if args.roundup_mem_gb is not None:
            name += f"_mem{args.roundup_mem_gb}gb"
        policies.append(
            cli.RoundingPolicy(name, float(gran), args.roundup_cutoff_ms, args.roundup_mem_gb)
        )
    return policies


def _analyze_roundup(records: list, policies: list, run: cli._Run) -> List[dict]:
    docs = [s.as_dict() for s in cli.rounding_up_stats(records, policies)]
    run.rows([tuple(d.values()) for d in docs], list(docs[0]), "rounding_up")
    return docs
