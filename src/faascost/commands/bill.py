"""``faascost bill``: one invocation priced as JSON, or a trace's records
priced one row each."""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from typing import Dict, Iterable, Iterator

from faascost import cli

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
    single = args.records is None
    # Each mode rejects the options only the other one reads, before any input is read.
    cli._applies_to(args, "a single bill, which --records replaces", single,
                    mem_mb="0", vcpus="0", exec_ms=0.0, init_ms=0.0, cpu_avg_vcpus=0.0,
                    mem_used_mb=0.0)
    # A --format of None is csv (see ``_Run.rows``).
    cli._applies_to(args, "the trace that --records names", not single,
                    schema=None, format=None)
    config = run.platform(args.platform)
    normalize = not args.no_normalize

    if not single:
        records_path = run.input(args.records)
        schema = cli._load_schema(run.input(args.schema))
        rows = _bill_rows(cli.ingest_trace(records_path, schema), config, normalize)
        run.rows(rows, _BILL_COLUMNS, "bills")
        return

    alloc = cli.ResourceAllocation(vcpus=args.vcpus, memory_mb=args.mem_mb)
    if normalize:
        alloc = cli.normalize_allocation(alloc, config)
    record = cli.InvocationRecord(
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
    breakdown = cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    doc["platform"] = config.name
    doc["alloc"] = {"vcpus": str(alloc.vcpus), "memory_mb": str(alloc.memory_mb)}
    try:
        doc["fee_equivalent_walltime_ms"] = f"{cli.fee_equivalent_walltime(config, alloc):.6f}"
    except cli.BillingError:
        pass
    run.json(doc, "bill.json")
