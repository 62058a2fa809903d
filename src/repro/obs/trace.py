"""Zero-dependency span tracer with Chrome-trace export.

One global tracer (:func:`get_tracer`) collects ``(name, cat, pid,
tid, span_id, parent_id, start, end, args)`` spans from every
instrumented surface — planner stages, pipeline iterations, plan-ring
probes, KV ops — and exports them in the
Chrome trace-event format, so they load into Perfetto /
``chrome://tracing`` on the same timeline as the execution lanes
produced by :mod:`repro.sim.trace` (merge the files with
:func:`repro.sim.trace.merge_chrome_traces`).

Tracing is **off by default** and the disabled path is deliberately
free of locks and allocation: ``span(...)`` reads one bool and returns
a shared no-op singleton, so instrumentation can stay inline on hot
paths (the obs benchmark gates the disabled-mode overhead ratio at
≤ 1.01 of the uninstrumented time; see ``BENCH_obs.json``).

Identity is thread- and process-aware: span ids embed ``os.getpid()``,
the thread id is recorded per span, and parent links come from a
per-thread stack so nesting is correct under concurrent planning.

Timestamps are ``time.perf_counter()``, so spans synthesized from
measured stamps via :meth:`Tracer.add_span` land at the right wall
offset.

Usage::

    from repro.obs import trace as obs_trace

    obs_trace.enable_tracing()
    with obs_trace.span("placement", "planner", batch=3):
        ...
    trace = obs_trace.get_tracer().to_chrome_trace()

Set ``REPRO_TRACE=1`` to enable tracing at import time.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Tracer",
    "get_tracer",
    "span",
    "add_span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]

#: Span-id layout: ``pid << _PID_SHIFT | per-process sequence number``.
_PID_SHIFT = 24

SpanTuple = Tuple[str, str, int, int, int, int, float, float, Optional[dict]]


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span context manager (only built while tracing is enabled)."""

    __slots__ = ("_tracer", "name", "cat", "args", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **args) -> None:
        """Attach key/value annotations to the span."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else 0
        self.span_id = tracer._next_id()
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        tracer._spans.append(
            (
                self.name,
                self.cat,
                os.getpid(),
                threading.get_ident(),
                self.span_id,
                self.parent_id,
                self.start,
                end,
                self.args or None,
            )
        )
        return False


class Tracer:
    """Span collector with a lock-free disabled fast path.

    ``enabled`` is a plain attribute read — toggling it is the only
    synchronization the fast path needs (stale reads just mean a span
    boundary lands one toggle late).  Recorded spans go into a Python
    list (append is atomic under the GIL), so concurrent planner
    threads trace without contention.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.origin = time.perf_counter()
        self._spans: List[SpanTuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- internals ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _next_id(self) -> int:
        return (os.getpid() << _PID_SHIFT) | next(self._ids)

    # -- recording ---------------------------------------------------------

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        args: Optional[dict] = None,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        """Record an externally measured interval.

        ``start``/``end`` are absolute ``time.perf_counter()`` stamps —
        used for intervals measured elsewhere (pipeline execution
        windows reconstructed from iteration records).
        """
        if not self.enabled:
            return
        self._spans.append(
            (
                name,
                cat,
                os.getpid() if pid is None else pid,
                threading.get_ident() if tid is None else tid,
                self._next_id(),
                0,
                start,
                end,
                args,
            )
        )

    # -- control -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self, reset_origin: bool = False) -> None:
        """Drop recorded spans (optionally restart the clock origin)."""
        self._spans = []
        if reset_origin:
            self.origin = time.perf_counter()

    def spans(self) -> List[SpanTuple]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self, time_scale: float = 1e6) -> dict:
        """Chrome trace-event dict (Perfetto-loadable).

        Timestamps are rebased to :attr:`origin` and scaled by
        ``time_scale`` (default: seconds → microseconds, the format's
        native unit).  The returned dict carries ``clockOrigin`` — the
        ``perf_counter`` value of trace-local t=0 — which
        :func:`repro.sim.trace.merge_chrome_traces` uses to align this
        trace with others from the same clock.
        """
        events: List[dict] = []
        thread_index: Dict[Tuple[int, int], int] = {}
        for pid in sorted({s[2] for s in self._spans}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"obs pid {pid}"},
                }
            )
        for name, cat, pid, tid, span_id, parent_id, start, end, args in self._spans:
            key = (pid, tid)
            index = thread_index.get(key)
            if index is None:
                index = sum(1 for (p, _t) in thread_index if p == pid)
                thread_index[key] = index
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": index,
                        "args": {"name": f"thread {index}"},
                    }
                )
            event_args = {"span_id": span_id}
            if parent_id:
                event_args["parent_id"] = parent_id
            if args:
                event_args.update(args)
            events.append(
                {
                    "name": name,
                    "cat": cat or "obs",
                    "ph": "X",
                    "pid": pid,
                    "tid": index,
                    "ts": (start - self.origin) * time_scale,
                    "dur": max(end - start, 0.0) * time_scale,
                    "args": event_args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "clockOrigin": self.origin,
        }


_TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented surface records to."""
    return _TRACER


def span(name: str, cat: str = "", **args):
    """Module-level span against the global tracer (hot-path helper)."""
    tracer = _TRACER
    if not tracer.enabled:
        return _NULL_SPAN
    return _Span(tracer, name, cat, args)


def add_span(
    name: str,
    cat: str,
    start: float,
    end: float,
    *,
    args: Optional[dict] = None,
    pid: Optional[int] = None,
    tid: Optional[int] = None,
) -> None:
    """Record an externally measured interval on the global tracer."""
    tracer = _TRACER
    if not tracer.enabled:
        return
    tracer.add_span(name, cat, start, end, args=args, pid=pid, tid=tid)


def enable_tracing() -> None:
    _TRACER.enable()


def disable_tracing() -> None:
    _TRACER.disable()


def tracing_enabled() -> bool:
    return _TRACER.enabled
