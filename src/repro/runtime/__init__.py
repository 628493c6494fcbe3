"""The supervised Tagwatch runtime: crash-safe, self-healing deployments.

Tagwatch is middleware meant to run unattended for months (the paper's
warehouse-sorting scenario).  This package wraps the two-phase loop with
the machinery a real deployment needs to survive that:

- :mod:`repro.runtime.checkpoint` — periodic atomic snapshots of the
  learned GMMs, tag registry, scheduler state and cycle counters, with a
  config hash so a snapshot from an incompatible deployment is rejected;
- :mod:`repro.runtime.supervisor` — per-cycle watchdog deadlines on
  simulated time with a retry → full-inventory → supervised-restart
  escalation ladder, plus LLRP session recovery;
- :mod:`repro.runtime.invariants` — runtime checkers the chaos soak
  harness (:mod:`repro.experiments.soak`) asserts after every cycle;
- :mod:`repro.runtime.oracle` — the one ``REPRO_REFERENCE`` switch that
  turns every fast path to its oracle, and the differential harness.

See ``docs/robustness.md`` for the state machine and the soak harness.
"""

import importlib

#: Public name -> submodule.  Loaded on first access, so that low layers
#: (the inventory engine, fusion) can import :mod:`repro.runtime.oracle`
#: without pulling in the supervisor stack above them.
_EXPORTS = {
    "CheckpointStore": "checkpoint",
    "CheckpointUnavailable": "checkpoint",
    "config_fingerprint": "checkpoint",
    "InvariantSuite": "invariants",
    "SiteInvariantSuite": "invariants",
    "Violation": "invariants",
    "EscalationLevel": "supervisor",
    "SupervisedCycle": "supervisor",
    "Supervisor": "supervisor",
    "SupervisorConfig": "supervisor",
    "WatchdogPolicy": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
