"""Failure detection for plan serving: circuit breakers.

A dead shard that every request still probes turns one failure into a
fleet-wide latency cliff: each fetch pays the full timeout before
falling back.  The standard fix is a per-target *circuit breaker* —
after ``failure_threshold`` consecutive failures the breaker opens and
callers fail over instantly; after ``reset_after_s`` it half-opens and
admits exactly one probe, whose outcome closes or re-opens it.

:class:`ShardHealth` aggregates breakers per target (the store's
shards) and counts breaker openings and fast fails.

Both classes take an injectable ``clock`` (default
``time.monotonic``) so tests and the chaos harness can drive breaker
state transitions deterministically instead of sleeping through them.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..obs.metrics import MetricsRegistry

__all__ = ["CircuitBreaker", "ShardHealth"]

#: Breaker states (exposed for tests/introspection).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Classic three-state breaker over consecutive failures.

    * ``closed`` — traffic flows; ``failure_threshold`` consecutive
      failures open it.
    * ``open`` — :meth:`allow` is False until ``reset_after_s`` has
      elapsed since opening.
    * ``half_open`` — exactly one caller is admitted as a probe; its
      :meth:`record_success` closes the breaker, its
      :meth:`record_failure` re-opens it (and restarts the timer).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.opened_count = 0

    def _maybe_half_open(self) -> None:
        """Open -> half-open once the reset timer elapses (lock held)."""
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_after_s):
            self._state = HALF_OPEN
            self._probing = False

    def allow(self) -> bool:
        """May the caller attempt the operation right now?

        In ``half_open`` only the first caller is admitted (the probe);
        concurrent callers keep failing fast until the probe reports.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = CLOSED
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                # Failed probe: straight back to open, timer restarted.
                self._state = OPEN
                self._opened_at = self._clock()
                self._probing = False
                self.opened_count += 1
                return
            self._failures += 1
            if self._state == CLOSED and \
                    self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()
                self.opened_count += 1


class ShardHealth:
    """Per-target breakers for the service.

    Targets are plain strings (``"shard0"``).  The store consults
    :meth:`allow` before routing an operation at a target and reports
    outcomes back.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._opened = self.metrics.counter("health.breaker_opened")
        self._fast_fails = self.metrics.counter("health.fast_fails")

    def breaker(self, target: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(target)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    reset_after_s=self.reset_after_s,
                    clock=self._clock,
                )
                self._breakers[target] = breaker
            return breaker

    def allow(self, target: str) -> bool:
        allowed = self.breaker(target).allow()
        if not allowed:
            self._fast_fails.inc()
        return allowed

    def record_success(self, target: str) -> None:
        self.breaker(target).record_success()

    def record_failure(self, target: str) -> None:
        breaker = self.breaker(target)
        before = breaker.opened_count
        breaker.record_failure()
        if breaker.opened_count > before:
            self._opened.inc()
