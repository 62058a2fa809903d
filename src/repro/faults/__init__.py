"""Deterministic fault injection (the chaos harness).

Fault handling used to be tested ad hoc: each test hand-rolled a
planner that raises, a store that hangs, a worker that dies.  This
package centralizes injection behind one state machine so that
tests, benchmarks, and the CI chaos gate all speak the same language:

* :class:`~repro.faults.injector.FaultInjector` — per-target fault
  state (killed, slow, restart count).
  Components consult it at their fault points; the injector never
  raises — the *component* decides which typed error
  (:mod:`repro.service.errors`) a fault becomes.
* :class:`~repro.faults.schedule.FaultSchedule` — a failure script: a
  list of timed events (``kill``/``restart``/``slow``/``clear``)
  parsed from a tiny text DSL
  (:func:`~repro.faults.schedule.parse_schedule`) and applied in
  wall-clock time (:class:`~repro.faults.schedule.ScheduleRunner`).

The replicated plan store (:mod:`repro.service.sharding`) and the
plan service's workers consult the injector at their own fault
points.  ``benchmarks/bench_chaos.py`` drives a
:class:`~repro.faults.schedule.ScheduleRunner` against such a service
to measure availability, recovery time, and degraded-serve fraction
under a scripted failure sequence, CI-gated via ``BENCH_chaos.json``.
"""

from .injector import FaultInjector
from .schedule import (
    FaultEvent,
    FaultSchedule,
    ScheduleRunner,
    parse_schedule,
)

__all__ = [
    "FaultInjector",
    "FaultEvent",
    "FaultSchedule",
    "ScheduleRunner",
    "parse_schedule",
]
