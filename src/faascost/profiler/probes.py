"""User-space throttle probes: live busy-loop and simulator replay.

Both probes implement the same observable: spin consuming CPU, read the
monotonic clock every iteration, and record every jump at or above the
gap threshold as (timestamp, gap). A throttled task cannot observe its
own suspension directly; the jump in the clock is the evidence.

The live probe preallocates its event buffer and touches no containers
inside the loop (the Python runtime still boxes integers; the loop is
written so a C port is allocation-free). The replay probe drives the
same detection logic with a virtual clock derived from a simulated
timeline, reading once per ``step_us`` of consumed CPU.
"""

from __future__ import annotations

import time
from array import array
from typing import TYPE_CHECKING, List

from .events import ProbeConfig, ProbeResult, ProfilerError, ThrottleEvent

if TYPE_CHECKING:
    from ..sched.types import ScheduleTimeline


def replay_probe(
    timeline: ScheduleTimeline, cfg: ProbeConfig, *, step_us: int = 50
) -> ProbeResult:
    """Run the detection loop against a simulated timeline.

    The virtual clock reads land every ``step_us`` of consumed CPU, so a
    throttle of length L is reported as a gap in (L, L + step] detected
    within one step of the resume. Iteration count is exact and bounded:
    one read per step of CPU time, which stands in for the hot loop's
    constant per-iteration work budget.

    The reads are counted, not stepped through. Within a running segment
    each read after the first comes ``step_us`` after the one before, below
    the gap threshold, so only a segment's first read can be an event; the
    CPU time after its last read carries into the next running segment.
    """
    # Imported here, so that importing this module loads no simulator.
    from ..sched.types import RUNNING

    if not isinstance(step_us, int) or step_us < 1:
        raise ProfilerError("step_us must be a positive integer")
    if step_us >= cfg.gap_threshold_us:
        raise ProfilerError("step_us must be below the gap threshold")
    cap = cfg.max_events
    events: List[ThrottleEvent] = []
    truncated = False
    iterations = 0
    last_read = 0
    carry = step_us  # CPU us until the next clock read
    for seg in timeline.segments:
        if seg.state != RUNNING:
            continue
        length = seg.end_us - seg.start_us
        if carry > length:
            carry -= length
            continue
        reads = (length - carry) // step_us + 1
        first = seg.start_us + carry
        gap = first - last_read
        if gap >= cfg.gap_threshold_us:
            if len(events) < cap:
                events.append(ThrottleEvent(first, gap))
            else:
                truncated = True
        iterations += reads
        last_read = first + (reads - 1) * step_us
        carry = step_us - (seg.end_us - last_read)
    return ProbeResult(
        events=tuple(events),
        total_runtime_ms=timeline.completion_us / 1000.0,
        truncated=truncated,
        loop_iterations=iterations,
        notes=("replay",),
    )


def probe(cfg: ProbeConfig) -> ProbeResult:
    """Busy-loop on the monotonic clock for ``exec_duration_ms``.

    Fatal if the clock cannot resolve the configured threshold. Pin the
    process to one CPU for clean results; the probe itself is
    single-threaded.
    """
    resolution_us = time.get_clock_info("monotonic").resolution * 1e6
    if resolution_us > cfg.gap_threshold_us:
        raise ProfilerError(
            f"monotonic clock resolution {resolution_us:.0f} us is coarser "
            f"than the {cfg.gap_threshold_us} us threshold"
        )
    cap = cfg.max_events
    buf = array("q", bytes(16 * cap))  # zeroed (detected_ns, gap_ns) pairs
    threshold_ns = cfg.gap_threshold_us * 1000
    duration_ns = int(cfg.exec_duration_ms * 1e6)
    clock = time.monotonic_ns
    n = 0
    iterations = 0
    truncated = False
    start = clock()
    deadline = start + duration_ns
    last = start
    while True:
        now = clock()
        iterations += 1
        if now - last >= threshold_ns:
            if n < cap:
                buf[2 * n] = now - start
                buf[2 * n + 1] = now - last
                n += 1
            else:
                truncated = True
        last = now
        if now >= deadline:
            break
    events = tuple(
        ThrottleEvent(buf[2 * i] // 1000, max(1, buf[2 * i + 1] // 1000))
        for i in range(n)
    )
    return ProbeResult(
        events=events,
        total_runtime_ms=(last - start) / 1e6,
        truncated=truncated,
        loop_iterations=iterations,
        notes=("live",),
    )
