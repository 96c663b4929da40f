"""Published bandwidth-control parameters for major FaaS platforms.

Values empirically measured and published for the platforms' function
runtimes; fingerprints from new runs can be compared against them to
identify which scheduler configuration a host resembles.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from .fingerprint import SchedulerFingerprint


class ReferenceSchedParams(NamedTuple):
    platform: str
    period_ms: float
    tick_hz: int
    note: str = ""


PUBLISHED_PLATFORM_SCHEDULERS: Dict[str, ReferenceSchedParams] = {
    "aws": ReferenceSchedParams(
        "aws", 20.0, 250, "quota scales with configured memory at ~1769 MB per vCPU"
    ),
    "gcp": ReferenceSchedParams(
        "gcp", 100.0, 1000, "quota follows the allocated CPU fraction"
    ),
    "ibm": ReferenceSchedParams("ibm", 10.0, 250, "fixed cap regardless of memory"),
}

_PERIOD_TOL_MS = 0.5


class ReferenceMatch(NamedTuple):
    platform: str
    reference_period_ms: float
    reference_tick_hz: int
    period_matches: Optional[bool]
    tick_matches: Optional[bool]

    @property
    def matches(self) -> bool:
        return bool(self.period_matches) and bool(self.tick_matches)


def fingerprint_report(
    fingerprint: SchedulerFingerprint,
    reference: Mapping[str, ReferenceSchedParams] = PUBLISHED_PLATFORM_SCHEDULERS,
) -> Dict:
    """Compare a fingerprint against the published parameter table.

    Period matches within 0.5 ms; tick must match exactly. Estimates the
    fingerprint lacks compare as unknown (None), never as a match.
    """
    rows: Tuple[ReferenceMatch, ...] = tuple(
        ReferenceMatch(
            platform=ref.platform,
            reference_period_ms=ref.period_ms,
            reference_tick_hz=ref.tick_hz,
            period_matches=(
                None
                if fingerprint.period_ms_estimate is None
                else abs(fingerprint.period_ms_estimate - ref.period_ms)
                <= _PERIOD_TOL_MS
            ),
            tick_matches=(
                None
                if fingerprint.tick_hz_estimate is None
                else fingerprint.tick_hz_estimate == ref.tick_hz
            ),
        )
        for ref in reference.values()
    )
    return {
        "fingerprint": fingerprint.as_dict(),
        "rows": [
            {
                "platform": r.platform,
                "reference_period_ms": r.reference_period_ms,
                "reference_tick_hz": r.reference_tick_hz,
                "period_matches": r.period_matches,
                "tick_matches": r.tick_matches,
                "matches": r.matches,
            }
            for r in rows
        ],
        "matched_platforms": [r.platform for r in rows if r.matches],
    }
