"""Timeline export of simulated executions.

The timing simulator records a labeled event stream per device
(attention kernels with tile counts, reductions, transfers with sizes
and peers, stalls).  This module renders that stream two ways:

* **Chrome trace JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`) — load the file into ``chrome://tracing``
  or Perfetto, the same workflow the paper uses with NVIDIA Nsight
  Systems for Fig. 22.  :func:`device_lanes` extracts the per-device
  compute / comm / stall lanes and :func:`repro.obs.trace.chrome_trace`
  writes them, first-fitting concurrent transfers onto as many comm
  tracks as they need; pass the same lanes beside
  :meth:`repro.obs.Tracer.lanes` to put the tracer's spans in one file;
* **ASCII Gantt chart** (:func:`ascii_gantt`) — a terminal rendering
  where overlap between computation and communication (the quantity
  Fig. 22 decomposes) is directly visible.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..obs.trace import Lane, chrome_trace
from .timing import TimingResult

__all__ = [
    "device_lanes",
    "to_chrome_trace",
    "write_chrome_trace",
    "ascii_gantt",
]

_LANES = ("compute", "comm", "stall")
_OVERLAP_CHAR = "X"


def device_lanes(result: TimingResult) -> List[Tuple[str, List[Lane]]]:
    """One ``("device <d>", lanes)`` process per device: its compute /
    comm / stall lanes in simulated seconds."""
    processes = []
    for device, timing in sorted(result.devices.items()):
        lanes: Dict[str, list] = {lane: [] for lane in _LANES}
        for name, lane, start, end in timing.events:
            lanes[lane].append((name, lane, start, end, None))
        processes.append((f"device {device}", list(lanes.items())))
    return processes


def to_chrome_trace(result: TimingResult) -> Dict:
    """Chrome trace-event dict of :func:`device_lanes`: one process per
    device; simulated seconds become microseconds."""
    return chrome_trace(device_lanes(result))


def write_chrome_trace(result: TimingResult, path: str) -> None:
    """Write the Chrome trace of ``result`` to ``path`` (JSON)."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(result), handle)


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
