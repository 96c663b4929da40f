"""Published bandwidth-control parameters for major FaaS platforms.

Values empirically measured and published for the platforms' function
runtimes; fingerprints from new runs can be compared against them to
identify which scheduler configuration a host resembles.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple

from .fingerprint import SchedulerFingerprint


class ReferenceSchedParams(NamedTuple):
    platform: str
    period_ms: float
    tick_hz: int


PUBLISHED_PLATFORM_SCHEDULERS: Dict[str, ReferenceSchedParams] = {
    # Quota scales with configured memory at ~1769 MB per vCPU.
    "aws": ReferenceSchedParams("aws", 20.0, 250),
    # Quota follows the allocated CPU fraction.
    "gcp": ReferenceSchedParams("gcp", 100.0, 1000),
    # Fixed cap regardless of memory.
    "ibm": ReferenceSchedParams("ibm", 10.0, 250),
}

_PERIOD_TOL_MS = 0.5


def fingerprint_report(
    fingerprint: SchedulerFingerprint,
    reference: Mapping[str, ReferenceSchedParams] = PUBLISHED_PLATFORM_SCHEDULERS,
) -> Dict:
    """Compare a fingerprint against the published parameter table.

    Period matches within 0.5 ms; tick must match exactly. Estimates the
    fingerprint lacks compare as unknown (None), never as a match.
    """
    period = fingerprint.period_ms_estimate
    tick = fingerprint.tick_hz_estimate
    rows = []
    for ref in reference.values():
        period_matches = None if period is None else abs(period - ref.period_ms) <= _PERIOD_TOL_MS
        tick_matches = None if tick is None else tick == ref.tick_hz
        rows.append(
            {
                "platform": ref.platform,
                "reference_period_ms": ref.period_ms,
                "reference_tick_hz": ref.tick_hz,
                "period_matches": period_matches,
                "tick_matches": tick_matches,
                "matches": bool(period_matches) and bool(tick_matches),
            }
        )
    return {
        "fingerprint": fingerprint.as_dict(),
        "rows": rows,
        "matched_platforms": [row["platform"] for row in rows if row["matches"]],
    }
