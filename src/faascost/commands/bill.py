"""``faascost bill``: one invocation priced as JSON, or a trace's records
priced one row each."""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from typing import Dict, Iterable, Iterator

from faascost import cli
from faascost.money import CONTEXT

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


def _usd_sum(terms) -> Decimal:
    """The exact sum of a :class:`CostBreakdown` term mapping's USD amounts."""
    total = Decimal(0)
    for _, usd in terms.values():
        total = CONTEXT.add(total, usd)
    return total


def _bill_row(record, config, alloc) -> tuple:
    """``record``'s row: four cells of its own, then its priced strings."""
    breakdown = cli.compute_cost(record, config, alloc)
    doc = breakdown.as_dict()
    return (
        record.function_id, record.instance_id, record.arrival_ts_ms, record.exec_duration_ms,
        doc["billable_time_ms"], doc["fee_usd"],
        cli.usd_string(_usd_sum(breakdown.alloc_terms)),
        cli.usd_string(_usd_sum(breakdown.usage_terms)),
        doc["total_usd"],
    )


def _stepped_strings(step, steps: int, fixed: tuple) -> tuple:
    """The priced strings of :func:`_bill_row` for a key ``steps`` time steps
    long, from ``step``, the cost of one step of its allocation on a platform
    that bills no usage, and ``fixed``, the fee and usage cells of every key
    there. The products are exact under ``CONTEXT``."""
    alloc_usd = CONTEXT.multiply(_usd_sum(step.alloc_terms), steps)
    # No time is billed as 0, whatever the granularity's exponent, as ceil_to gives it.
    time_ms = CONTEXT.multiply(step.billable_time_ms, steps) if steps else 0
    fee, usage = fixed
    return (str(time_ms), fee, cli.usd_string(alloc_usd), usage,
            cli.usd_string(CONTEXT.add(step.fee_usd, alloc_usd)))


def _bill_rows(records: Iterable[cli.InvocationRecord], config,
               normalize: bool) -> Iterator[tuple]:
    """:func:`_bill_row` of each record, priced once per distinct billing key.

    The key is the record's :class:`TraceBilling` key. Every record with
    that key has the same billable quantities, so the same priced columns.
    The engine prices the first key of each granted allocation. When the
    platform bills no usage, a later key of that allocation is priced as
    its steps times the allocation's one-step cost
    (:meth:`TraceBilling.step_cost`); otherwise the engine prices it too.
    """
    billing = cli.TraceBilling(config, normalize=normalize)
    priced: Dict[tuple, tuple] = {}
    # Granted allocations with a key priced by the engine; None when the
    # platform bills usage, and the engine prices every key.
    stepped = None if config.usage_resources else set()
    fixed = None
    for record in records:
        key = billing.key(record)
        strings = priced.get(key)
        if strings is None:
            vcpus, memory_mb = record.alloc_vcpus, record.alloc_memory_mb
            granted = billing.grant(vcpus, memory_mb)[0]
            if stepped is not None and granted in stepped:
                strings = _stepped_strings(billing.step_cost(vcpus, memory_mb), key[2], fixed)
            else:
                strings = _bill_row(record, config, granted)[4:]
                if stepped is not None:
                    stepped.add(granted)
                    # The fee and usage cells, the same for every key.
                    fixed = sys.intern(strings[1]), sys.intern(strings[3])
            if len(priced) < billing.KEYS_CAP:
                # Interned, so the fee and repeated amounts are stored once.
                strings = priced[key] = tuple(map(sys.intern, strings))
        yield (record.function_id, record.instance_id, record.arrival_ts_ms,
               record.exec_duration_ms, *strings)


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
