"""Per-target fault state, changed only by explicit calls.

The injector is pure state — it never raises and never sleeps on its
own.  Instrumented components ask two questions at their fault
points and act on the answers:

* :meth:`FaultInjector.is_killed` — is this target dead right now?
  (The component raises its typed unavailable error.)
* :meth:`FaultInjector.delay_s` — how long must this operation stall?
  (The component sleeps; models slow I/O.)

Kill/restart carries a *generation*: :meth:`restart_count` increments
on every restart, which lets a stateful component (a KV shard) detect
"I was killed and came back" and realize the data loss a real process
restart implies — the injector itself holds no component state.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["FaultInjector"]


class _TargetState:
    __slots__ = ("killed", "restarts", "delay_s")

    def __init__(self) -> None:
        self.killed = False
        self.restarts = 0
        self.delay_s = 0.0


class FaultInjector:
    """Thread-safe registry of injected faults, keyed by target name.

    Targets are free-form strings; the repo's conventions are
    ``"shard:<name>"`` for KV shards and ``"worker:<index>"`` for
    planner workers.  All mutation methods are idempotent and safe to
    call from a schedule-runner thread while the service is serving.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._targets: Dict[str, _TargetState] = {}

    def _state(self, target: str) -> _TargetState:
        state = self._targets.get(target)
        if state is None:
            state = _TargetState()
            self._targets[target] = state
        return state

    # -- mutation (schedule side) ---------------------------------------

    def kill(self, target: str) -> None:
        with self._lock:
            self._state(target).killed = True

    def restart(self, target: str) -> None:
        with self._lock:
            state = self._state(target)
            if state.killed:
                state.killed = False
                state.restarts += 1

    def slow(self, target: str, delay_s: float) -> None:
        """Every operation at ``target`` stalls ``delay_s`` until cleared."""
        with self._lock:
            self._state(target).delay_s = max(0.0, float(delay_s))

    def clear(self, target: str) -> None:
        """Lift slow at ``target`` (kill state untouched)."""
        with self._lock:
            self._state(target).delay_s = 0.0

    # -- queries (component side) ---------------------------------------

    def is_killed(self, target: str) -> bool:
        with self._lock:
            state = self._targets.get(target)
            return state.killed if state is not None else False

    def restart_count(self, target: str) -> int:
        with self._lock:
            state = self._targets.get(target)
            return state.restarts if state is not None else 0

    def delay_s(self, target: str) -> float:
        """Stall for this operation (sustained until cleared)."""
        with self._lock:
            state = self._targets.get(target)
            return state.delay_s if state is not None else 0.0
