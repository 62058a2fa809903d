"""Zero-dependency metrics registry: counters, gauges, histograms.

The unified accounting layer for the repo's timing claims.  Every
component that used to keep a bespoke stats dict (cache hit/miss
counters, pool refetch savings) now increments metrics
in a :class:`MetricsRegistry` and exposes its old public attribute as
a *view* over the registry — one accounting truth, queryable in one
place.

Design constraints (mirrors the tracer in :mod:`repro.obs.trace`):

* stdlib only — importable from every layer without cycles;
* thread-safe — metrics carry their own locks (plain ``int``/``float``
  arithmetic under a `threading.Lock`; registry get-or-create under a
  registry lock).  Every planner runs on a thread of the process that
  owns its registry, so nothing pickles one; ship a
  :meth:`MetricsRegistry.snapshot` instead.

Histograms use fixed exponential buckets
(:data:`DEFAULT_LATENCY_BUCKETS`: 1µs .. ~67s, powers of two) and
report p50/p95/p99 via linear interpolation inside the containing
bucket, clamped to the observed ``[min, max]`` — accurate to roughly
one bucket width (verified against ``numpy.percentile`` in
``tests/test_obs.py``).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Exponential latency buckets: upper bounds in seconds, 1µs · 2**i.
#: The implicit final bucket catches everything above ~67s.
DEFAULT_LATENCY_BUCKETS = tuple(1e-6 * 2.0**i for i in range(27))

Number = Union[int, float]


class Counter:
    """Monotonic counter (int or float increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-value metric (e.g. queue depth)."""

    __slots__ = ("name", "_value", "_updates", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0
        self._updates = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value
            self._updates += 1

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value, "updates": self._updates}


def _bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    lo: float,
    hi: float,
    q: float,
) -> float:
    """Quantile ``q`` from fixed-bucket counts, numpy-'linear' ranked.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (bucket 0 extends
    down to the observed minimum, the final overflow bucket up to the
    observed maximum).  The estimate places the bucket's samples
    uniformly across its span and is clamped to ``[lo, hi]``.
    """
    if count <= 0:
        return math.nan
    rank = q * (count - 1)
    cum = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cum + c > rank:
            b_lo = bounds[i - 1] if i > 0 else lo
            b_hi = bounds[i] if i < len(bounds) else hi
            b_lo = max(min(b_lo, hi), min(lo, hi))
            b_hi = min(max(b_hi, lo), max(lo, hi))
            frac = (rank - cum + 0.5) / c
            est = b_lo + (b_hi - b_lo) * frac
            return min(max(est, lo), hi)
        cum += c
    return hi


class Histogram:
    """Histogram over :data:`DEFAULT_LATENCY_BUCKETS` with p50/p95/p99
    quantile estimates."""

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bounds = DEFAULT_LATENCY_BUCKETS
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        quantiles = {
            key: _bucket_quantile(self.bounds, counts, count, lo, hi, q)
            for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
        }
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": lo if count else None,
            "max": hi if count else None,
            "bounds": list(self.bounds),
            "counts": counts,
            "p50": None if count == 0 else quantiles["p50"],
            "p95": None if count == 0 else quantiles["p95"],
            "p99": None if count == 0 else quantiles["p99"],
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create access and a snapshot."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- get-or-create ----------------------------------------------------
    def _get_or_create(self, name: str, kind) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict snapshot of every metric (JSON-ready)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}


class _NullMetric:
    """No-op stand-in accepted everywhere a real metric is."""

    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """Registry that records nothing — the uninstrumented baseline.

    Passed as ``metrics=`` to components when measuring tracer/metrics
    overhead (``repro.obs.bench``): call sites still execute, but every
    observation is a no-op, which is as close to "uninstrumented" as
    the instrumented code can get.
    """

    __slots__ = ()

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC


NULL_REGISTRY = NullRegistry()
