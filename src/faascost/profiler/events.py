"""Throttle event records and their CSV wire format.

Events are (detection timestamp, gap duration) pairs in integer
microseconds relative to probe start. The CSV format is shared by real
and replayed runs: header ``detected_at_us,gap_us``, one event per line.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from typing import IO, Iterable, List, NamedTuple, Tuple, Union

from ..checked import checked


class ProfilerError(ValueError):
    """Invalid probe configuration or malformed event stream."""


@checked
class ThrottleEvent(NamedTuple):
    """One detected scheduling gap.

    ``detected_at_us`` is the clock reading that revealed the gap, i.e.
    the first reading after the task resumed; ``gap_us`` is the distance
    to the reading before it. Both therefore overshoot the underlying
    throttle by at most one probe step.
    """

    detected_at_us: int
    gap_us: int

    def _check(self) -> None:
        if self.detected_at_us < 0 or self.gap_us <= 0:
            raise ProfilerError("event times must be nonnegative, gaps positive")

    @property
    def detected_at_ms(self) -> float:
        return self.detected_at_us / 1000.0


@checked
class ProbeConfig(NamedTuple):
    """Probe knobs: how long to spin and what counts as a gap.

    Thresholds below 100 us are rejected; that is the scale of a clock
    read plus loop overhead, so smaller values detect the probe itself.
    """

    exec_duration_ms: float
    gap_threshold_us: int = 500

    def _check(self) -> None:
        if not math.isfinite(self.exec_duration_ms):
            raise ProfilerError("exec_duration_ms must be finite")
        if self.exec_duration_ms <= 0:
            raise ProfilerError("exec_duration_ms must be positive")
        if not isinstance(self.gap_threshold_us, int) or self.gap_threshold_us < 100:
            raise ProfilerError("gap_threshold_us must be an integer >= 100")

    @property
    def max_events(self) -> int:
        # Worst case: one event per threshold of runtime. The buffer is
        # sized up front so the hot loop never grows a container.
        return int(self.exec_duration_ms * 1000) // self.gap_threshold_us + 1


class ProbeResult(NamedTuple):
    """Events plus run metadata the analyzer needs."""

    events: Tuple[ThrottleEvent, ...]
    total_runtime_ms: float
    truncated: bool = False
    loop_iterations: int = 0
    notes: Tuple[str, ...] = ()


_HEADER = ["detected_at_us", "gap_us"]


def events_to_csv(events: Iterable[ThrottleEvent], sink: Union[str, IO[str]]) -> None:
    """Write events in the shared CSV format to a path or a stream."""
    is_path = isinstance(sink, str)
    with open(sink, "w", encoding="utf-8", newline="") if is_path else nullcontext(sink) as fh:
        w = csv.writer(fh)
        w.writerow(_HEADER)
        for ev in events:
            w.writerow([ev.detected_at_us, ev.gap_us])


def events_from_csv(source: Union[str, IO[str]]) -> List[ThrottleEvent]:
    """Read events back from a path or a stream; validates the header and
    integer fields."""
    is_path = isinstance(source, str)
    with open(source, encoding="utf-8", newline="") if is_path else nullcontext(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HEADER:
            raise ProfilerError(f"expected header {_HEADER}, got {header}")
        out: List[ThrottleEvent] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ProfilerError(f"line {lineno}: expected 2 fields, got {len(row)}")
            try:
                out.append(ThrottleEvent(int(row[0]), int(row[1])))
            except ValueError as exc:
                raise ProfilerError(f"line {lineno}: {exc}") from exc
        return out
