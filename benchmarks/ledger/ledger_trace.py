"""The ledger's span recorder and timing summaries.

Spans are recorded from the benchmark's side of each layer boundary
(name, start, end, parent, operation id), kept in memory and written
out when the run ends.  Spans that ``src/`` already emits through
:mod:`repro.obs` (``coarsen``, ``partition``, ``refine_level``,
``service.fetch``, ...) can be adopted into the same tree, so a layer's
self time — its duration minus what its child spans cover — is
computed one way for both.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Times set-up is repeated in one run; ``setup_s`` reports the median.
SETUP_REPEATS = 3


class SpanRecorder:
    """In-memory span tree for one traced run."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[dict]:
        """Time a region; nests under the innermost open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(
        self,
        obs_spans: Iterable[tuple],
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> None:
        """Add :mod:`repro.obs` span tuples, keeping their parent links.

        A span without an obs parent hangs under ``parent`` — the id of
        the layer call that emitted it.
        """
        obs_spans = list(obs_spans)
        ids = {
            span[4]: len(self.spans) + index
            for index, span in enumerate(obs_spans)
        }
        for span in obs_spans:
            name, _cat, _pid, tid, span_id, parent_id, start, end, args = span
            self.spans.append(
                {
                    "id": ids[span_id],
                    "name": name,
                    "parent": ids.get(parent_id, parent),
                    "op": op,
                    "start": start,
                    "end": end,
                    "thread": tid,
                    "args": args,
                }
            )

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return {key: max(value, 0.0) for key, value in own.items()}

    def total(self, names: Sequence[str], self_time: bool = False) -> float:
        """Summed duration (or self time) of the spans named ``names``."""
        own = self.self_times() if self_time else None
        return sum(
            own[s["id"]] if self_time else s["end"] - s["start"]
            for s in self.spans
            if s["name"] in names
        )

    def count(self, names: Sequence[str]) -> int:
        return sum(1 for s in self.spans if s["name"] in names)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, default=str)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with ten samples beyond it (the
    maximum when there are not eleven samples)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def summary(values: Sequence[float]) -> dict:
    """Median, tail and sample count of a timing, as the ledger reports
    every per-batch / per-request timing."""
    count = len(values)
    return {
        "n": count,
        "p50": percentile(values, 50),
        "tail": tail(values),
        "tail_percentile": (
            100.0 * (count - 10) / count if count > 10 else 100.0
        ),
        "mean": sum(values) / count,
    }


#: Layer metric -> the spans that measure it: the ledger's own span
#: around the public call, or the one ``src/`` emits inside a planner
#: thread (``scheduling`` there covers schedule + serialize).
_LAYER_SPANS = {
    "blocks.generate_s": ("blocks.generate", "generate_blocks"),
    "hypergraph.partition_s": ("partition",),
    "hypergraph.coarsen_s": ("coarsen",),
    "hypergraph.refine_s": ("refine_level", "refine"),
    "placement.place_s": ("placement.place", "placement"),
    "scheduling.schedule_s": ("scheduling.schedule", "scheduling"),
    "scheduling.serialize_s": ("scheduling.serialize",),
    "core.wire_encode_s": ("core.wire_encode",),
    "core.wire_decode_s": ("core.wire_decode",),
    "sim.simulate_s": ("sim.simulate",),
}
_PLAN_SPANS = ("batch", "plan_batch")


def planner_layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-plan busy seconds of the planner layers that recorded spans."""
    plans = max(recorder.count(_PLAN_SPANS), 1)
    metrics = {
        name: recorder.total(spans) / plans
        for name, spans in _LAYER_SPANS.items()
        if recorder.count(spans)
    }
    metrics["placement.self_s"] = (
        recorder.total(_LAYER_SPANS["placement.place_s"], self_time=True)
        / plans
    )
    return metrics


def setup_repeats(smoke: bool) -> int:
    return 1 if smoke else SETUP_REPEATS


def median_setup(
    build: Callable[[], object],
    close: Optional[Callable[[object], None]] = None,
    repeats: int = SETUP_REPEATS,
) -> Tuple[object, float]:
    """Set up ``repeats`` times; the last state and the median seconds."""
    state, times = None, []
    for _ in range(repeats):
        if state is not None and close is not None:
            close(state)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
