"""Failure scripts: a timed event DSL over the fault injector.

A chaos experiment is a *schedule* — "at t=0.2 kill shard1, at t=1.0
restart it, meanwhile slow shard2" — applied to a
:class:`~repro.faults.injector.FaultInjector` while a workload runs.
The schedule is data (parseable, diffable, recordable into a bench
report), not test code: unit tests apply its events in order, and the
chaos benchmark runs it in wall time (:class:`ScheduleRunner`).

DSL
---
One event per line (``#`` comments and blank lines ignored)::

    0.20 kill    shard:shard1
    0.40 slow    shard:shard2 0.01
    0.90 clear   shard:shard2
    1.00 restart shard:shard1

Columns: time (seconds from schedule start), action, target, optional
numeric argument (required for ``slow``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .injector import FaultInjector

__all__ = ["FaultEvent", "FaultSchedule", "ScheduleRunner",
           "parse_schedule"]

#: action -> whether a numeric argument is required.
_ACTIONS = {
    "kill": False,
    "restart": False,
    "clear": False,
    "slow": True,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: ``at_s`` seconds in, do ``action`` to
    ``target`` (with ``arg`` for slow)."""

    at_s: float
    action: str
    target: str
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("event time must be non-negative")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if _ACTIONS[self.action] and self.arg is None:
            raise ValueError(f"action {self.action!r} needs an argument")

    def apply(self, injector: FaultInjector) -> None:
        if self.action == "kill":
            injector.kill(self.target)
        elif self.action == "restart":
            injector.restart(self.target)
        elif self.action == "clear":
            injector.clear(self.target)
        elif self.action == "slow":
            injector.slow(self.target, float(self.arg))


@dataclass
class FaultSchedule:
    """An ordered failure script (events sorted by time, stable)."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_s)


def parse_schedule(text: str) -> FaultSchedule:
    """Parse the DSL (module docstring) into a :class:`FaultSchedule`."""
    events: List[FaultEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(
                f"schedule line {lineno}: expected "
                f"'<at_s> <action> <target> [arg]', got {raw!r}"
            )
        try:
            at_s = float(parts[0])
        except ValueError as exc:
            raise ValueError(
                f"schedule line {lineno}: bad time {parts[0]!r}"
            ) from exc
        arg = None
        if len(parts) == 4:
            try:
                arg = float(parts[3])
            except ValueError as exc:
                raise ValueError(
                    f"schedule line {lineno}: bad argument {parts[3]!r}"
                ) from exc
        events.append(FaultEvent(at_s, parts[1], parts[2], arg))
    return FaultSchedule(events)


class ScheduleRunner:
    """Applies a schedule to an injector in wall-clock time.

    A daemon thread sleeps between events; :meth:`start` stamps t=0.
    ``join`` waits for the script to finish, :meth:`stop` aborts early
    (remaining events unapplied).
    """

    def __init__(self, schedule: FaultSchedule,
                 injector: FaultInjector) -> None:
        self.schedule = schedule
        self.injector = injector
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.started_at: Optional[float] = None

    def _run(self) -> None:
        start = self.started_at
        for event in self.schedule.events:
            wait = event.at_s - (time.monotonic() - start)
            if wait > 0 and self._stop.wait(timeout=wait):
                return
            if self._stop.is_set():
                return
            event.apply(self.injector)

    def start(self) -> "ScheduleRunner":
        if self._thread is not None:
            raise RuntimeError("schedule already started")
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="fault-schedule", daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        self._stop.set()
        self.join(timeout=5.0)

    def __enter__(self) -> "ScheduleRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
