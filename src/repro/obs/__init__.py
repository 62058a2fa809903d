"""Unified observability: span tracer and metrics registry.

The telemetry subsystem behind every timing claim in the repo:

* :mod:`repro.obs.trace` — zero-dependency span tracer with a
  lock-free disabled fast path, and the repo's one Chrome-trace
  writer (:func:`~repro.obs.trace.chrome_trace`); planner stages,
  pipeline iterations, plan-ring probes and KV ops land on one
  Perfetto timeline, beside the simulator's execution lanes
  (:func:`repro.sim.trace.device_lanes`) when written in the same
  call.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  latency histograms (p50/p95/p99) in a
  :class:`~repro.obs.metrics.MetricsRegistry`; the cache hit/miss
  counters and pool savings counters are views over it.
* :mod:`repro.obs.bench` — tracer and metrics overhead and the
  telemetry check behind ``benchmarks/bench_overlap_pipeline.py
  --obs``, which writes ``BENCH_obs.json`` (CI-gated by
  ``benchmarks/check_bench_floors.py``).

``trace`` and ``metrics`` are stdlib only, so every layer of the repo
can import them without cycles; ``bench`` imports the rest of
``repro`` lazily.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .trace import (
    Tracer,
    add_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "get_tracer",
    "span",
    "add_span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]
