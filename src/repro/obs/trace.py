"""Zero-dependency span tracer and the one Chrome-trace writer.

One global tracer (:func:`get_tracer`) collects ``(name, cat, pid,
tid, span_id, parent_id, start, end, args)`` spans from every
instrumented surface — planner stages, pipeline iterations (``fetch
{i}`` and ``exec {i}`` on the consumer thread), plan-ring probes, KV
ops.

:func:`chrome_trace` is the only builder of Chrome trace-event dicts
(Perfetto / ``chrome://tracing``).  It takes processes of lanes of
``(name, cat, start_s, end_s, args)`` intervals from any source —
:meth:`Tracer.lanes` (the spans, one lane per thread) or
:func:`repro.sim.trace.device_lanes` (a simulated execution's compute /
comm / stall lanes) — so a combined trace is one call.  Complete
events on one track must nest; intervals that partially overlap on one
lane go first-fit onto as many sub-tracks as they need.

Tracing is **off by default** and the disabled path is deliberately
free of locks and allocation: ``span(...)`` reads one bool and returns
a shared no-op singleton, so instrumentation can stay inline on hot
paths (the obs benchmark gates the disabled-mode overhead ratio at
≤ 1.01 of the uninstrumented time; see ``BENCH_obs.json``).

Span ids are unique per tracer, the thread id is recorded per span,
and parent links come from a per-thread stack so nesting is correct
under concurrent planning.

Timestamps are ``time.perf_counter()``, so spans synthesized from
measured stamps via :meth:`Tracer.add_span` land at the right wall
offset.

Usage::

    from repro.obs import trace as obs_trace

    obs_trace.enable_tracing()
    with obs_trace.span("placement", "planner", batch=3):
        ...
    trace = obs_trace.get_tracer().to_chrome_trace()
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "chrome_trace",
    "Tracer",
    "get_tracer",
    "span",
    "add_span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]

SpanTuple = Tuple[str, str, int, int, int, int, float, float, Optional[dict]]

#: ``(name, cat, start_s, end_s, args)``: one slice of a trace lane.
Interval = Tuple[str, str, float, float, Optional[dict]]
#: ``(lane name, intervals)``.
Lane = Tuple[str, Sequence[Interval]]


def _tracks(intervals: Iterable[Interval]) -> List[List[Interval]]:
    """First-fit ``intervals`` onto sub-tracks, on each of which every
    two slices are disjoint or nested."""
    tracks: List[List[Interval]] = []
    open_ends: List[List[float]] = []  # per track: ends of open slices
    for interval in sorted(intervals, key=lambda i: (i[2], -i[3])):
        start, end = interval[2], max(interval[3], interval[2])
        for track, ends in zip(tracks, open_ends):
            while ends and ends[-1] <= start:
                ends.pop()
            if not ends or end <= ends[-1]:
                break
        else:
            track, ends = [], []
            tracks.append(track)
            open_ends.append(ends)
        track.append(interval)
        ends.append(end)
    return tracks


def _name_event(kind: str, pid: int, tid: int, name: str) -> dict:
    """A ``process_name`` / ``thread_name`` metadata event."""
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def chrome_trace(processes: Iterable[Tuple[str, Sequence[Lane]]]) -> dict:
    """Chrome trace-event dict of ``(process name, lanes)`` pairs.

    Process ``i`` gets ``pid`` ``i``; each lane one thread per sub-track
    it needs (the second named ``"<lane> #2"``, …).  Seconds become
    the format's microseconds.
    """
    events: List[dict] = []
    for pid, (process, lanes) in enumerate(processes):
        events.append(_name_event("process_name", pid, 0, process))
        tid = 0
        for lane, intervals in lanes:
            for index, track in enumerate(_tracks(intervals)):
                label = lane if index == 0 else f"{lane} #{index + 1}"
                events.append(_name_event("thread_name", pid, tid, label))
                for name, cat, start, end, args in track:
                    event = {
                        "name": name,
                        "cat": cat,
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": start * 1e6,
                        "dur": max(end - start, 0.0) * 1e6,
                    }
                    if args:
                        event["args"] = args
                    events.append(event)
                tid += 1
    return {"traceEvents": events, "displayTimeUnit": "ms"}


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
        self.span_id = next(tracer._ids)
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

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[SpanTuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        #: Thread id -> thread name, recorded with the thread's stack.
        self._names: Dict[int, str] = {}

    # -- internals ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            thread = threading.current_thread()
            self._names[thread.ident] = thread.name
        return stack

    # -- recording ---------------------------------------------------------

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        args: Optional[dict] = None,
    ) -> None:
        """Record an externally measured interval.

        ``start``/``end`` are absolute ``time.perf_counter()`` stamps —
        used for intervals measured elsewhere (pipeline execution
        windows reconstructed from iteration records).
        """
        if not self.enabled:
            return
        self._stack()  # names this thread's lane
        self._spans.append(
            (
                name,
                cat,
                os.getpid(),
                threading.get_ident(),
                next(self._ids),
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

    def clear(self) -> None:
        """Drop recorded spans."""
        self._spans = []

    def spans(self) -> List[SpanTuple]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    # -- export ------------------------------------------------------------
    def lanes(self) -> List[Lane]:
        """The spans as one lane per thread, named after the thread, in
        seconds from the first span's start; span and parent ids ride
        in each slice's args."""
        spans = list(self._spans)
        origin = min((s[6] for s in spans), default=0.0)
        lanes: Dict[int, List[Interval]] = {}
        for name, cat, _pid, tid, span_id, parent_id, start, end, args in spans:
            event_args = {"span_id": span_id}
            if parent_id:
                event_args["parent_id"] = parent_id
            if args:
                event_args.update(args)
            lanes.setdefault(tid, []).append(
                (name, cat or "obs", start - origin, end - origin, event_args)
            )
        return [
            (self._names[tid], intervals)
            for tid, intervals in lanes.items()
        ]

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event dict of the spans (Perfetto-loadable)."""
        return chrome_trace([("obs", self.lanes())])


_TRACER = Tracer()


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
) -> None:
    """Record an externally measured interval on the global tracer."""
    tracer = _TRACER
    if not tracer.enabled:
        return
    tracer.add_span(name, cat, start, end, args=args)


def enable_tracing() -> None:
    _TRACER.enable()


def disable_tracing() -> None:
    _TRACER.disable()


def tracing_enabled() -> bool:
    return _TRACER.enabled
