"""Scheduler fingerprinting: throttle probe, replay, and inference.

Each name below is imported from its submodule on first read (PEP 562), so
``profile analyze`` loads neither the probes nor the reference table, and
``profile replay`` loads no analyzer.
"""

from faascost import bind_on_first_read

#: Each public name and the submodule that defines it.
_SUBMODULES = {
    "ProbeConfig": "events",
    "ProbeResult": "events",
    "ProfilerError": "events",
    "ThrottleEvent": "events",
    "events_from_csv": "events",
    "events_to_csv": "events",
    "SchedulerFingerprint": "fingerprint",
    "analyze_events": "fingerprint",
    "probe": "probes",
    "replay_probe": "probes",
    "PUBLISHED_PLATFORM_SCHEDULERS": "reference",
    "ReferenceSchedParams": "reference",
    "fingerprint_report": "reference",
}

__all__ = sorted(_SUBMODULES)

__getattr__ = bind_on_first_read(globals(), __name__, _SUBMODULES)
