"""Domain types for the CPU bandwidth-control models.

All simulator arithmetic runs in integer microseconds so that work
conservation holds exactly; these types carry the conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from ..money import dec

Number = Union[int, float, str]

US_PER_MS = 1000
MAX_TICK_HZ = 1_000_000


class SchedulingError(ValueError):
    """Invalid scheduling parameters or unsatisfiable configuration."""


def to_us(value_ms: Number, name: str) -> int:
    """Exact milliseconds to integer microseconds.

    Floats are read at face value (their shortest decimal form), so 1.45 ms
    is exactly 1450 us. Sub-microsecond residue is rejected rather than
    silently rounded.
    """
    f = Fraction(dec(value_ms)) * US_PER_MS
    if f.denominator != 1:
        raise SchedulingError(
            f"{name} must be a whole number of microseconds, got {value_ms!r} ms"
        )
    return int(f)


@dataclass(frozen=True)
class TaskSpec:
    """A CPU-bound task demanding ``cpu_time_ms`` of CPU time."""

    cpu_time_ms: float

    def __post_init__(self) -> None:
        if dec(self.cpu_time_ms) <= 0:
            raise SchedulingError("cpu_time_ms must be positive")


@dataclass(frozen=True)
class BandwidthControlConfig:
    """Bandwidth-control knobs: quota ``quota_ms`` per period ``period_ms``.

    ``tick_hz`` is the scheduler tick frequency bounding runtime accounting
    granularity; ``slice_ms`` is the chunk the per-CPU local pool acquires
    from the global pool. ``flavor`` selects the accounting model: ``cfs``
    accounts at ticks only, ``eevdf`` additionally accounts after every
    slice of consumption (a tighter-accounting approximation, not a
    virtual-deadline implementation).
    """

    period_ms: float
    quota_ms: float
    tick_hz: int = 250
    slice_ms: float = 5.0
    flavor: str = "cfs"

    def __post_init__(self) -> None:
        if dec(self.period_ms) <= 0 or dec(self.quota_ms) <= 0:
            raise SchedulingError("period and quota must be positive")
        if dec(self.quota_ms) > dec(self.period_ms):
            raise SchedulingError(
                "quota above period means more than one core; not modeled"
            )
        if not isinstance(self.tick_hz, int) or not 1 <= self.tick_hz <= MAX_TICK_HZ:
            raise SchedulingError(
                f"tick_hz must be an integer in [1, {MAX_TICK_HZ}]"
            )
        if dec(self.slice_ms) <= 0:
            raise SchedulingError("slice_ms must be positive")
        if self.flavor not in ("cfs", "eevdf"):
            raise SchedulingError(f"unknown flavor: {self.flavor!r}")


RUNNING = "running"
THROTTLED = "throttled"


@dataclass(frozen=True)
class Segment:
    start_us: int
    end_us: int
    state: str

    @property
    def start_ms(self) -> float:
        return self.start_us / US_PER_MS

    @property
    def end_ms(self) -> float:
        return self.end_us / US_PER_MS


@dataclass(frozen=True)
class ScheduleTimeline:
    """Simulation output: contiguous running/throttled segments from t=0.

    ``overruns_us`` records, for each throttle, the runtime debt at that
    moment: CPU consumed beyond what had been acquired from the quota,
    which lagged accounting allows to build up between ticks.
    """

    cpu_time_ms: float
    config: BandwidthControlConfig
    segments: Tuple[Segment, ...]
    completion_us: int
    overruns_us: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev_end = 0
        for seg in self.segments:
            if seg.start_us != prev_end or seg.end_us <= seg.start_us:
                raise SchedulingError("segments must be contiguous from 0")
            prev_end = seg.end_us
        if prev_end != self.completion_us:
            raise SchedulingError("segments must end at completion")

    @property
    def completion_ms(self) -> float:
        return self.completion_us / US_PER_MS

    @property
    def obtained_runtimes_us(self) -> List[int]:
        return [s.end_us - s.start_us for s in self.segments if s.state == RUNNING]

    @property
    def obtained_runtimes(self) -> List[float]:
        return [us / US_PER_MS for us in self.obtained_runtimes_us]

    @property
    def throttle_durations_us(self) -> List[int]:
        return [s.end_us - s.start_us for s in self.segments if s.state == THROTTLED]

    @property
    def throttle_durations(self) -> List[float]:
        return [us / US_PER_MS for us in self.throttle_durations_us]

    @property
    def overruns_ms(self) -> List[float]:
        return [us / US_PER_MS for us in self.overruns_us]

    @property
    def max_overrun_ms(self) -> float:
        return max(self.overruns_ms, default=0.0)

    def as_dict(self) -> Dict:
        return {
            "cpu_time_ms": self.cpu_time_ms,
            "completion_ms": self.completion_ms,
            "segments": [
                {"start_ms": s.start_ms, "end_ms": s.end_ms, "state": s.state}
                for s in self.segments
            ],
            "obtained_runtimes_ms": self.obtained_runtimes,
            "throttle_durations_ms": self.throttle_durations,
            "overruns_ms": self.overruns_ms,
        }
