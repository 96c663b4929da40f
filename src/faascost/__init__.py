"""Serverless cost modeling toolkit.

Four areas, one package:

- ``faascost.billing``: a generalized pay-per-use cost engine (granularity
  rounding, minimum cutoffs, invocation fees) plus editable per-platform
  billing configs.
- ``faascost.traces``: invocation-trace analytics (billable-resource
  inflation, utilization correlation, cold-start differentials, rounding-up
  statistics) with streaming aggregation.
- ``faascost.sched``: CPU bandwidth-control models, both the closed-form
  duration formula and a discrete-event simulator with lagged tick
  accounting.
- ``faascost.profiler``: a user-space throttle probe and an offline analyzer
  that infers scheduler period, quota, and timer frequency from throttle
  observations.
"""

__version__ = "0.1.0"


def bind_on_first_read(namespace, package, owners):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``.

    The first read of a name in ``owners`` imports the module
    ``package.<owners[name]>`` and binds the name in ``namespace`` to that
    module's attribute of the same name; later reads find it bound. Any
    other name raises AttributeError.
    """
    from importlib import import_module

    def __getattr__(name):
        if name not in owners:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = import_module(f"{package}.{owners[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__
