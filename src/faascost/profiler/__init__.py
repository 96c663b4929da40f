"""Scheduler fingerprinting: throttle probe, replay, and inference.

Each name below is imported from its submodule on first read (PEP 562), so
``profile analyze`` loads neither the reference table nor the simulator that
``replay_probe`` replays. :func:`analyze` and :func:`probe` are the
exceptions, bound at import: each shares its name with its submodule, and
importing that submodule binds the module to the name here, over a function
bound on first read.
"""

import importlib

from faascost.profiler.analyze import analyze
from faascost.profiler.probe import probe

#: Each public name read on first use and the submodule that defines it.
_SUBMODULES = {
    "SchedulerFingerprint": "analyze",
    "ProbeConfig": "events",
    "ProbeResult": "events",
    "ProfilerError": "events",
    "ThrottleEvent": "events",
    "events_from_csv": "events",
    "events_to_csv": "events",
    "replay_probe": "probe",
    "PUBLISHED_PLATFORM_SCHEDULERS": "reference",
    "ReferenceMatch": "reference",
    "ReferenceSchedParams": "reference",
    "fingerprint_report": "reference",
}

__all__ = sorted([*_SUBMODULES, "analyze", "probe"])


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULES[name]}")
    value = globals()[name] = getattr(module, name)
    return value
