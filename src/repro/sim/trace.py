"""Timeline export of simulated executions.

The timing simulator records a labeled event stream per device
(attention kernels with tile counts, reductions, transfers with sizes
and peers, stalls).  This module renders that stream two ways:

* **Chrome trace JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`) — load the file into ``chrome://tracing``
  or Perfetto, the same workflow the paper uses with NVIDIA Nsight
  Systems for Fig. 22;
* **ASCII Gantt chart** (:func:`ascii_gantt`) — a terminal rendering
  where overlap between computation and communication (the quantity
  Fig. 22 decomposes) is directly visible.

It also renders the *planning* pipeline:
:func:`overlap_chrome_trace` turns a
:class:`~repro.core.pool.PlanningTimeline` — analytic
(:func:`~repro.core.pool.simulate_planning_overlap`) or measured
(:meth:`repro.pipeline.OverlapStats.timeline`) — into the same trace
format, one lane for execution and one for planning, with stalls
called out, so the §6.1 overlap claim is inspectable in Perfetto next
to the execution traces.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .timing import TimingResult

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "ascii_gantt",
    "overlap_chrome_trace",
    "merge_chrome_traces",
]

_LANES = ("compute", "comm", "stall")
_LANE_CHAR = {"compute": "#", "comm": "=", "stall": "-"}
_OVERLAP_CHAR = "X"

#: Seconds to the microseconds the trace format expects.
_US = 1e6


def to_chrome_trace(result: TimingResult) -> Dict:
    """Convert a :class:`TimingResult` into Chrome trace-event JSON.

    One process per device; one thread per lane (compute / comm /
    stall); simulated seconds become microseconds.
    """
    events: List[Dict] = []
    for device, timing in sorted(result.devices.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": device,
                "args": {"name": f"device {device}"},
            }
        )
        for tid, lane in enumerate(_LANES):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": device,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        for name, lane, start, end in timing.events:
            events.append(
                {
                    "name": name,
                    "cat": lane,
                    "ph": "X",
                    "pid": device,
                    "tid": _LANES.index(lane),
                    "ts": start * _US,
                    "dur": max(end - start, 0.0) * _US,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(result: TimingResult, path: str) -> None:
    """Write the Chrome trace of ``result`` to ``path`` (JSON)."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(result), handle)


def overlap_chrome_trace(
    timeline, clock_origin: Optional[float] = None
) -> Dict:
    """Chrome trace of a planning/execution overlap timeline.

    ``timeline`` is any object with ``exec_start``/``exec_end``/
    ``plan_start``/``plan_end``/``stalls`` per-iteration lists (the
    :class:`~repro.core.pool.PlanningTimeline` shape).  Lane 0 holds
    execution slices, lane 1 planning slices, lane 2 the stalls —
    exposed planning the pipeline failed to hide.

    Measured timelines are relative to the pipeline's start; pass that
    start's ``time.perf_counter()`` value (the pipeline's
    ``clock_origin``) as ``clock_origin`` and the trace can be aligned
    with tracer spans from the same run via :func:`merge_chrome_traces`.
    """
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "planning pipeline"},
        }
    ]
    lanes = ("execution", "planning", "stall")
    for tid, lane in enumerate(lanes):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": lane},
            }
        )

    def slice_event(name, tid, start, end):
        events.append(
            {
                "name": name,
                "cat": lanes[tid],
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": start * _US,
                "dur": max(end - start, 0.0) * _US,
            }
        )

    iterations = len(timeline.exec_start)
    for i in range(iterations):
        slice_event(f"exec {i}", 0, timeline.exec_start[i], timeline.exec_end[i])
        slice_event(f"plan {i}", 1, timeline.plan_start[i], timeline.plan_end[i])
        stall = timeline.stalls[i]
        if stall > 0.0:
            slice_event(
                f"stall {i}", 2, timeline.exec_start[i] - stall,
                timeline.exec_start[i],
            )
    trace: Dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if clock_origin is not None:
        trace["clockOrigin"] = clock_origin
    return trace


def merge_chrome_traces(
    traces,
    labels: Optional[List[Optional[str]]] = None,
) -> Dict:
    """Merge several Chrome traces onto one shared epoch.

    Each input is a trace dict from :func:`to_chrome_trace`,
    :func:`overlap_chrome_trace`, or
    :meth:`repro.obs.trace.Tracer.to_chrome_trace`.  Traces that carry
    a ``clockOrigin`` (the ``time.perf_counter()`` value of their local
    t=0) are rebased onto the earliest such origin, so *measured*
    traces from the same process tree align exactly; traces without
    one (e.g. simulated executions, whose clock is simulated seconds)
    keep their own t=0 at the shared epoch.  Every input is in
    microseconds, as every exporter here writes.

    Process ids are re-namespaced to disjoint ranges (the simulator
    uses ``pid = device``, the overlap lane ``pid = 0`` — merged
    verbatim they would collide).  ``labels``, if given, prefixes each
    trace's process names so the lanes stay identifiable in Perfetto.
    """
    traces = list(traces)
    if labels is not None and len(labels) != len(traces):
        raise ValueError("labels must match traces one-to-one")
    origins = [trace.get("clockOrigin") for trace in traces]
    known = [origin for origin in origins if origin is not None]
    epoch = min(known) if known else 0.0
    merged: List[Dict] = []
    pid_base = 0
    for index, trace in enumerate(traces):
        origin = origins[index]
        shift = (origin - epoch) * _US if origin is not None else 0.0
        label = labels[index] if labels else None
        events = trace.get("traceEvents", [])
        pid_map: Dict[int, int] = {}
        for pid in sorted({event.get("pid", 0) for event in events}):
            pid_map[pid] = pid_base + len(pid_map)
        pid_base += max(len(pid_map), 1)
        for event in events:
            out = dict(event)
            out["pid"] = pid_map.get(event.get("pid", 0), pid_base - 1)
            if "ts" in out:
                out["ts"] = out["ts"] + shift
            if (
                label
                and out.get("ph") == "M"
                and out.get("name") == "process_name"
            ):
                args = dict(out.get("args", {}))
                args["name"] = f"{label}: {args.get('name', '')}".rstrip(": ")
                out["args"] = args
            merged.append(out)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def _paint(
    line: List[str], start: float, end: float, total: float, char: str
) -> None:
    width = len(line)
    if total <= 0:
        return
    first = int(start / total * width)
    last = max(int(end / total * width), first + 1)
    for i in range(first, min(last, width)):
        if line[i] == ".":
            line[i] = char
        elif line[i] != char:
            line[i] = _OVERLAP_CHAR


def ascii_gantt(result: TimingResult, width: int = 72) -> str:
    """Render per-device timelines as an ASCII Gantt chart.

    ``#`` computation, ``=`` communication, ``-`` stall, ``X``
    computation/communication overlap, ``.`` idle.  The chart is
    normalized to the iteration time, so bars are directly comparable
    across devices.
    """
    total = result.iteration_time
    lines = [
        f"iteration {total * 1e3:.3f} ms  "
        f"(# compute, = comm, X overlap, - stall, . idle)"
    ]
    for device in sorted(result.devices):
        timing = result.devices[device]
        line = ["."] * width
        for start, end in timing.compute_intervals:
            _paint(line, start, end, total, "#")
        for start, end in timing.comm_intervals:
            _paint(line, start, end, total, "=")
        for name, lane, start, end in timing.events:
            if lane == "stall":
                _paint(line, start, end, total, "-")
        busy = timing.compute_time + timing.exposed_comm
        lines.append(
            f"dev{device:>3} |{''.join(line)}| "
            f"{busy / total * 100 if total else 0:5.1f}% busy"
        )
    return "\n".join(lines)
