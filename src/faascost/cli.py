"""Command line front end: bill, analyze, simulate, profile.

This module parses the command line, and ``main`` imports the module of the
command being run from ``faascost.commands`` and no other, so each command
compiles only its own code where no bytecode is cached. What the commands
share stays here: the parser, the staging of outputs with their manifest
(``_Run``), and the helpers more than one command uses.

Results are plain CSV/JSON files written into ``--out-dir``; without it a
command with a single result writes it to stdout, and one with several
(``analyze``, the ``simulate`` sweep) refuses to run. A command that
succeeds with an output directory also writes ``run.json`` there: the
subcommand, resolved config paths, the seed (null unless ``analyze`` runs
the correlation analysis, the one that reads it), SHA-256 digests of every
input file, the output paths relative to that directory and the tool
version, so a result directory is self-describing. Files are written under
a ``.partial`` name and take their final names only when the command
succeeds, so a command that fails leaves no output file, no manifest and no
directory of its own making. Given
identical inputs and seed, output files are byte-identical across reruns;
the manifest's ``wall_time_s`` field is the one exception.

Each command imports only the layers it runs, so ``simulate`` starts
without billing, traces or PyYAML, and none imports ``dataclasses``. One
rule binds the names taken from the layers: the first read of
``faascost.cli.<name>`` imports that name's layer and binds the name, and
the command modules read every such name as an attribute of this module. A
patch on ``faascost.cli.<name>``, made before or after that first read, is
therefore what the commands call. Run as ``python -m faascost.cli``, this
module registers itself as ``faascost.cli`` as well, so that the command
modules import it without compiling it again.
"""

from __future__ import annotations

import argparse
import csv
import contextlib
import importlib
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from faascost import __version__, bind_on_first_read

_cli = sys.modules[__name__]

#: The names this module takes from each layer of ``faascost``, each bound on
#: first read.
_LAYER_NAMES: Dict[str, Sequence[str]] = {
    "money": ("usd_string",),
    "billing": ("BillingError", "ResourceAllocation", "TraceBilling", "compute_cost",
                "fee_equivalent_walltime", "normalize_allocation", "resolve_platform",
                "resolve_platform_path"),
    "traces": ("IngestStats", "InvocationRecord", "RoundingPolicy", "SchemaMap",
               "check_session_gap", "cold_start_differential", "inflation_analysis",
               "ingest_trace", "rounding_up_stats", "utilization_correlation"),
    "sched": ("BandwidthControlConfig", "TaskSpec", "closed_form_duration",
              "duration_curve", "fraction_grid", "quantization_breakpoints", "simulate"),
    "profiler": ("ProbeConfig", "PUBLISHED_PLATFORM_SCHEDULERS", "ReferenceSchedParams",
                 "analyze_events", "events_from_csv", "events_to_csv", "fingerprint_report",
                 "probe", "replay_probe"),
}
__getattr__ = bind_on_first_read(
    globals(), "faascost",
    {name: layer for layer, names in _LAYER_NAMES.items() for name in names})


_ANALYSES = ("inflation", "correlation", "cold-start", "roundup")


class CliError(ValueError):
    """Raised for usage problems detected after argument parsing."""


# ------------------------------------------------------------------- run


def _digest(path: Path) -> Optional[str]:
    """The SHA-256 of a regular file; None for a pipe or a device, whose
    bytes the run has consumed and a second read would not see."""
    if not path.is_file():
        return None
    # The interpreter's own SHA-256: ``hashlib`` maps OpenSSL, 3 MB of RSS
    # that no data needs. OpenSSL hashes about five times as fast, which on
    # a 90 MB trace is 3% of an ``analyze``. A CPython built without either
    # module still digests, through ``hashlib``.
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """One command's inputs and outputs, and the ``run.json`` that lists them.

    Outputs go into ``--out-dir``, made on first write, or to stdout when
    there is none, as UTF-8 whatever the locale. Files are staged as
    ``<name>.partial`` beside their final paths, for :meth:`commit` to
    rename or :meth:`discard` to delete, with the directories made for them.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.out_dir = Path(args.out_dir) if args.out_dir else None
        self.config_paths: List[Path] = []
        self.inputs: List[Path] = []
        self.outputs: Dict[Path, Path] = {}  # final path -> staging file
        self.made_dirs: List[Path] = []  # parents before children
        if self.out_dir is None and isinstance(sys.stdout, io.TextIOWrapper):
            sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)

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
        path = _cli.resolve_platform_path(name, self.args.config_dir)
        self.config_paths.append(path)
        # Named by the path found, the config loads without a second search.
        return _cli.resolve_platform(str(path))

    def target(self, name: str) -> Optional[Path]:
        """The staging file of output ``name`` in ``out_dir``; None is stdout."""
        if self.out_dir is None:
            return None
        missing = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.made_dirs.extend(reversed(missing))
        path = self.out_dir / name
        return self.outputs.setdefault(path, path.with_name(path.name + ".partial"))

    def json(self, doc, name: str) -> None:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = self.target(name)
        if path is None:
            sys.stdout.write(text)
        else:
            path.write_text(text, encoding="utf-8")

    def rows(self, rows: Iterable[Sequence], fieldnames: Sequence[str], stem: str) -> None:
        """The rows, each a sequence of the ``fieldnames`` columns in order, as
        CSV or as one JSON array of objects, each row written as it comes."""
        table_format = self.args.format or "csv"
        path = self.target(f"{stem}.{table_format}")
        sink = open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
        with sink as fh:
            if table_format == "json":
                _write_json_array(fh, rows, fieldnames)
                return
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows(rows)

    def commit(self) -> None:
        """Stage ``run.json``, then give every staged output its final name."""
        if self.out_dir is not None:
            manifest = {
                "subcommand": self.args.command,
                "tool_version": __version__,
                "seed": getattr(self.args, "seed", None),
                "config_paths": sorted(str(p) for p in self.config_paths),
                "input_digests": {str(p): _digest(p) for p in sorted(self.inputs)},
                "outputs": sorted(p.name for p in self.outputs),
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


def _write_json_array(fh, rows: Iterable[Sequence], fieldnames: Sequence[str]) -> None:
    """``json.dumps([dict(zip(fieldnames, row)) for row in rows], indent=2,
    sort_keys=True)`` and a newline, written one row at a time; each cell is
    a scalar."""
    # With indent set, json.dumps runs its pure-Python encoder: the layout is
    # built here once, and each cell is encoded on its own.
    encode = json.JSONEncoder().encode
    order = sorted(range(len(fieldnames)), key=fieldnames.__getitem__)
    prefixes = [(i, f"\n    {encode(fieldnames[i])}: ") for i in order]
    opener = "[\n  {"
    for row in rows:
        fh.write(opener + ",".join([prefix + encode(row[i]) for i, prefix in prefixes])
                 + "\n  }")
        opener = ",\n  {"
    fh.write("[]\n" if opener == "[\n  {" else "\n]\n")


def _applies_to(args: argparse.Namespace, what: str, read: bool, **defaults) -> None:
    """Check options that one mode of a command reads and the others ignore.

    Each option is named by its dest in ``defaults`` and parsed with a
    default of None, so any value on the command line, ``0`` and ``""``
    too, counts as given. When the running mode reads the options
    (``read``), each one not given takes its default here, and otherwise
    stays None. When it does not, the first one given, in the order of
    ``defaults``, is the error "<option> applies to <what>".
    """
    for dest, default in defaults.items():
        if getattr(args, dest) is not None:
            if not read:
                raise CliError(f"--{dest.replace('_', '-')} applies to {what}")
        elif read:
            setattr(args, dest, default)


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
    unknown = sorted(set(doc) - set(_cli.SchemaMap._fields))
    if unknown:
        raise CliError(f"{source}: unknown schema keys: {unknown}")
    try:
        return _cli.SchemaMap(**doc)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{source}: {exc}") from exc


def _bandwidth_config(args: argparse.Namespace, period_ms: str) -> BandwidthControlConfig:
    """The config of one ``--q`` timeline: quota, tick rate, slice and flavor."""
    return _cli.BandwidthControlConfig(
        period_ms=period_ms,
        quota_ms=args.q,
        tick_hz=args.tick_hz,
        slice_ms=args.slice_ms,
        flavor=args.flavor,
    )


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    # Every parser sets allow_abbrev=False: a prefix of an option is an error,
    # not that option (``--out x`` would otherwise be ``--out-dir x``).
    parser = argparse.ArgumentParser(
        prog="faascost",
        allow_abbrev=False,
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
        default=None,
        help="tabular output format (default csv)",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config-dir", default=None, help="extra config directory")
    inputs.add_argument("--schema", default=None, help="schema map YAML/JSON for the trace")
    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--tick-hz", type=int, default=250, help="scheduler tick rate")
    sched.add_argument("--slice-ms", default="5", help="EEVDF slice length")
    sched.add_argument("--flavor", choices=("cfs", "eevdf"), default="cfs")
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--gap-threshold-us", type=int, default=500)
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
        "bill", parents=[out, table, inputs], help="price invocations under a platform config",
        allow_abbrev=False,
    )
    bill.add_argument("--platform", required=True, help="config name or YAML path")
    bill.add_argument("--records", default=None, help="trace CSV to bill in batch")
    bill.add_argument("--mem-mb", default=None, help="allocated memory in MB (default 0)")
    bill.add_argument("--vcpus", default=None, help="allocated vCPUs (default 0)")
    bill.add_argument("--exec-ms", type=float, default=None, help="execution time (default 0)")
    bill.add_argument("--init-ms", type=float, default=None, help="init time (default 0)")
    bill.add_argument(
        "--cpu-avg-vcpus", type=float, default=None, help="mean vCPUs consumed (default 0)"
    )
    bill.add_argument(
        "--mem-used-mb", type=float, default=None, help="memory consumed in MB (default 0)"
    )
    bill.add_argument(
        "--no-normalize",
        action="store_true",
        help="bill the allocation exactly as given instead of mapping it "
        "to the platform's knob grid first",
    )

    analyze = sub.add_parser(
        "analyze", parents=[out, table, inputs], help="run trace analytics", allow_abbrev=False
    )
    analyze.add_argument("--trace", required=True, help="trace CSV (optionally .gz)")
    analyze.add_argument(
        "--seed", type=int, default=None, help="seed of the scatter sample (default 0)"
    )
    analyze.add_argument(
        "--analyses",
        default=",".join(_ANALYSES),
        help=f"comma list from {_ANALYSES} (default all)",
    )
    analyze.add_argument(
        "--platforms",
        default=None,
        help="comma list of platform configs for the inflation analysis (default aws_lambda)",
    )
    analyze.add_argument(
        "--mapping",
        choices=("normalize", "direct"),
        default=None,
        help="how the inflation analysis maps trace allocations onto the platform's "
        "knobs (default normalize)",
    )
    analyze.add_argument(
        "--session-gap-ms",
        type=float,
        default=None,
        help="idle gap that splits an instance into billing sessions (default 900000)",
    )
    analyze.add_argument(
        "--roundup-ms", default=None, help="comma list of time granularities (default 1,100)"
    )
    analyze.add_argument(
        "--roundup-cutoff-ms", type=float, default=None, help="minimum billed time (default 0)"
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

    sim = sub.add_parser(
        "simulate", parents=[out, table, sched], help="CPU bandwidth-control models",
        allow_abbrev=False,
    )
    sim.add_argument("--t", required=True, help="task CPU time in ms")
    sim.add_argument(
        "--p", required=True, help="enforcement period in ms, or a comma list"
    )
    sim.add_argument(
        "--q", default=None, help="quota in ms; selects single-timeline mode"
    )
    sim.add_argument("--grid", type=int, default=None, help="points in the f sweep (default 200)")
    sim.add_argument(
        "--f-lo", type=float, default=None,
        help="smallest vCPU fraction in the sweep (default 0.005)"
    )
    sim.add_argument(
        "--exact-accounting",
        action="store_true",
        help="charge runtime continuously instead of at ticks; the curve "
        "then matches the closed form exactly",
    )
    sim.add_argument(
        "--breakpoints",
        action="store_true",
        default=None,
        help="also emit detected quantization breakpoints per period",
    )
    sim.add_argument(
        "--mem-per-vcpu-mb",
        type=float,
        default=None,
        help="annotate breakpoints with proportional-allocation memory sizes",
    )

    prof = sub.add_parser("profile", help="scheduler fingerprinting", allow_abbrev=False)
    prof_sub = prof.add_subparsers(dest="action", required=True)

    prun = prof_sub.add_parser(
        "run", parents=[out, probe], help="run the live throttle probe", allow_abbrev=False
    )
    prun.add_argument("--duration-ms", type=float, required=True)

    prep = prof_sub.add_parser(
        "replay",
        parents=[out, probe, sched],
        help="probe a simulated timeline instead of live CPU",
        allow_abbrev=False,
    )
    prep.add_argument("--t", required=True, help="task CPU time in ms")
    prep.add_argument("--p", required=True, help="enforcement period in ms")
    prep.add_argument("--q", required=True, help="quota in ms")
    prep.add_argument("--step-us", type=int, default=50)

    prof_sub.add_parser(
        "analyze", parents=[out, event_log], help="fingerprint a saved event log",
        allow_abbrev=False,
    )

    prev = prof_sub.add_parser(
        "report",
        parents=[out, event_log],
        help="fingerprint plus comparison against published schedulers",
        allow_abbrev=False,
    )
    prev.add_argument(
        "--reference",
        default=None,
        help="YAML table platform -> {period_ms, tick_hz} overriding the "
        "built-in published values",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Only the running command's module is imported, so only its code is
    # compiled where no bytecode is cached.
    command = importlib.import_module(f"faascost.commands.{args.command}").command
    run = _Run(args)
    try:
        command(args, run)
        run.commit()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.discard()
    return 0


if __name__ == "__main__":
    if vars(_cli) is globals():
        # ``python -m faascost.cli``: this module is ``__main__``. It is also
        # ``faascost.cli``, which each command module imports; unregistered,
        # that import would compile and run this file a second time.
        sys.modules["faascost.cli"] = _cli
    else:
        # Run by runpy without a module of its own (``python -m cProfile -m
        # faascost.cli``): the commands read their names through the
        # imported module.
        from faascost.cli import main
    sys.exit(main())
