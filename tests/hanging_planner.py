"""A planner whose first calls hang, for the worker-fault tests.

A hung planner worker cannot be killed, and the pipeline's ``close()``
deliberately does not wait one out.  So a test that hangs a worker
ends the hang itself before it returns: used as a context manager,
:class:`HangingPlanner` releases every hung call on exit and waits
until no call of it is still running.  A worker that woke up later
would plan during some other test and record its ``plan_batch`` spans
into that test's tracer.
"""

import threading


class HangingPlanner:
    """Hangs the first ``hangs`` calls for ``delay`` seconds (or until
    the ``with`` block ends), then plans with ``planner``."""

    def __init__(self, planner, hangs, delay=0.6):
        self.planner = planner
        self.hangs = hangs
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._running = 0
        self._released = threading.Event()

    def plan_batch(self, batch):
        with self._lock:
            self.calls += 1
            self._running += 1
            hang = self.calls <= self.hangs
        try:
            if hang:
                self._released.wait(self.delay)
            return self.planner.plan_batch(batch)
        finally:
            with self._lock:
                self._running -= 1
                self._settled.notify_all()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._released.set()
        with self._settled:
            self._settled.wait_for(lambda: self._running == 0)
