"""``faascost bill``: one invocation priced as JSON, or a trace's records
priced one row each."""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from typing import Dict, Iterable, Iterator

from faascost import cli
from faascost.cli import CliError

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


def _bill_row(record, config, alloc) -> tuple:
    """``record``'s row: four cells of its own, then its priced strings."""
    breakdown = cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    return (
        record.function_id, record.instance_id, record.arrival_ts_ms, record.exec_duration_ms,
        doc["billable_time_ms"], doc["fee_usd"],
        cli.usd_string(sum((usd for _, usd in breakdown.alloc_terms.values()), Decimal(0))),
        cli.usd_string(sum((usd for _, usd in breakdown.usage_terms.values()), Decimal(0))),
        doc["total_usd"],
    )


def _bill_rows(records: Iterable[cli.InvocationRecord], config,
               normalize: bool) -> Iterator[tuple]:
    """:func:`_bill_row` of each record, priced once per distinct billing key.

    The key is the record's :class:`TraceBilling` key. Every record with
    that key has the same billable quantities, so the same priced columns.
    """
    billing = cli.TraceBilling(config, normalize=normalize)
    priced: Dict[tuple, tuple] = {}
    for record in records:
        key = billing.key(record)
        strings = priced.get(key)
        if strings is not None:
            yield (record.function_id, record.instance_id, record.arrival_ts_ms,
                   record.exec_duration_ms, *strings)
            continue
        granted = billing.grant(record.alloc_vcpus, record.alloc_memory_mb)[0]
        row = _bill_row(record, config, granted)
        if len(priced) < billing.KEYS_CAP:
            # Interned, so the fee and repeated amounts are stored once.
            priced[key] = tuple(map(sys.intern, row[4:]))
        yield row


def command(args: argparse.Namespace, run: cli._Run) -> None:
    single = {"--mem-mb": args.mem_mb, "--vcpus": args.vcpus, "--exec-ms": args.exec_ms,
              "--init-ms": args.init_ms, "--cpu-avg-vcpus": args.cpu_avg_vcpus,
              "--mem-used-mb": args.mem_used_mb}
    # Each mode rejects the options only the other one reads, before any input is read.
    given = [option for option, value in single.items() if value is not None]
    if args.records is not None and given:
        raise CliError(f"{given[0]} applies to a single bill, which --records replaces")
    if args.records is None and args.schema is not None:
        raise CliError("--schema applies to the trace that --records names")
    config = run.platform(args.platform)
    normalize = not args.no_normalize

    if args.records is not None:
        records_path = run.input(args.records)
        schema = cli._load_schema(run.input(args.schema))
        rows = _bill_rows(cli.ingest_trace(records_path, schema), config, normalize)
        run.rows(rows, _BILL_COLUMNS, "bills")
        return

    mem_mb, vcpus, exec_ms, init_ms, cpu_avg_vcpus, mem_used_mb = (
        default if value is None else value
        for value, default in zip(single.values(), ("0", "0", 0.0, 0.0, 0.0, 0.0)))
    alloc = cli.allocation(vcpus=vcpus, memory_mb=mem_mb)
    if normalize:
        alloc = cli.normalize_allocation(alloc, config)
    record = cli.InvocationRecord(
        function_id="cli",
        instance_id="cli-0",
        arrival_ts_ms=0.0,
        exec_duration_ms=exec_ms,
        init_duration_ms=init_ms,
        is_cold_start=init_ms > 0,
        alloc_vcpus=float(alloc.vcpus),
        alloc_memory_mb=float(alloc.memory_mb),
        cpu_usage_avg_vcpus=cpu_avg_vcpus,
        mem_usage_mb=mem_used_mb,
    )
    # The exact allocation is billed, not the record's floats.
    breakdown = cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    doc["platform"] = config.name
    doc["alloc"] = {"vcpus": str(alloc.vcpus), "memory_mb": str(alloc.memory_mb)}
    try:
        doc["fee_equivalent_walltime_ms"] = f"{cli.fee_equivalent_walltime(config, alloc):.6f}"
    except cli.BillingError:
        pass
    run.json(doc, "bill.json")
