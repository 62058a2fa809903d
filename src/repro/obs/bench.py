"""Tracer/metrics overhead benchmark and combined-trace builder.

Two jobs, both behind the ``--obs`` mode of
``benchmarks/bench_overlap_pipeline.py``:

**Overhead.**  The observability layer claims its disabled path is
free: ``span(...)`` reads one bool, metric handles are no-ops when a
:class:`~repro.obs.metrics.NullRegistry` is injected.  This module
*measures* that claim on the Fig. 18 smoke workload (the same batches
the overlap smoke plans) under three modes:

* ``uninstrumented`` — ``NullRegistry`` + tracer disabled: call sites
  still execute but every observation is a no-op, the closest the
  instrumented code can get to not being instrumented at all;
* ``disabled`` — a real registry, tracer disabled: the shipping
  default;
* ``enabled`` — the same plus span recording.

Each mode plans the identical batch list; the reported time is the
minimum over interleaved repeats (robust to scheduler noise), and the
headline ratios — ``disabled / uninstrumented`` and ``enabled /
uninstrumented`` — are written to ``BENCH_obs.json`` and gated by
``benchmarks/check_bench_floors.py`` (tracked ceilings 1.01 / 1.05).
A direct per-span micro-benchmark (ns per ``span()`` enter/exit,
disabled and enabled) is recorded alongside.

**Telemetry + trace.**  With tracing enabled, one pipeline run (cache
hits and planner dispatches), KV round-trips of its plans, and one
simulated execution are driven through a *shared* registry; the
resulting snapshot (including the plan-fetch hit/dispatch latency
split) lands in the report, and the tracer spans, the pipeline's
overlap timeline, and the simulator's execution lanes are merged onto
one epoch (:func:`repro.sim.merge_chrome_traces`) into a
Perfetto-loadable ``TRACE_obs.json`` — planner stages, pipeline
iterations, KV ops, and simulated execution on a shared clock.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from typing import Dict, List, Optional

from .metrics import NULL_REGISTRY, MetricsRegistry
from .trace import get_tracer, span as _span

__all__ = [
    "measure_overhead",
    "collect_telemetry",
    "run_obs_bench",
    "gate_failures",
    "plan_fetch_summary",
    "REQUIRED_METRICS",
    "DEFAULT_DISABLED_RATIO_MAX",
    "DEFAULT_ENABLED_RATIO_MAX",
    "DEFAULT_SMOKE_DISABLED_RATIO_MAX",
    "DEFAULT_SMOKE_ENABLED_RATIO_MAX",
]

#: Ceilings on the tracked (full-run) overhead ratios — the acceptance
#: numbers: disabled-mode instrumentation must be ≈ free, enabled-mode
#: tracing within 5% on the smoke workload.
DEFAULT_DISABLED_RATIO_MAX = 1.01
DEFAULT_ENABLED_RATIO_MAX = 1.05

#: Ceilings for the CI smoke run: same measurement, shared-runner
#: noise, fewer repeats — looser so scheduling jitter cannot fail a PR
#: that did not touch the fast path, while a real regression (a lock
#: or allocation on the disabled path) still lands far above.
DEFAULT_SMOKE_DISABLED_RATIO_MAX = 1.05
DEFAULT_SMOKE_ENABLED_RATIO_MAX = 1.25

#: Metric names the telemetry workload must populate — the presence
#: gate ``check_bench_floors.py`` enforces so a refactor cannot
#: silently drop an instrumented surface.
REQUIRED_METRICS = (
    "planner.plan_s",
    "planner.placement_s",
    "pipeline.plan_fetch_hit_s",
    "pipeline.plan_fetch_dispatch_s",
    "pipeline.iterations",
    "cache.hits",
    "cache.misses",
    "kv.put_s",
    "kv.get_s",
)


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _smoke_batches(num_batches: int = 4):
    """Distinct small batches (~2048 tokens, varied lengths) — the same
    shape the overlap smoke cell plans."""
    from repro.blocks import BatchSpec
    from repro.masks import make_mask

    mask = make_mask("causal")
    return [
        BatchSpec.build(
            [512 + 128 * i, 384, 256 + 64 * i, 896 - 192 * i], mask
        )
        for i in range(num_batches)
    ]


def _smoke_scale(num_batches: int = 4):
    from repro.bench import BenchScale

    return BenchScale.sweep(
        num_batches=num_batches,
        token_budget=2048,
        max_seqlen=2048,
        block_size=256,
    )


def _span_overhead_ns(iters: int = 50000) -> Dict[str, float]:
    """Direct per-call cost of ``span()`` enter/exit, ns per op."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    out: Dict[str, float] = {}
    try:
        tracer.disable()
        start = time.perf_counter()
        for _ in range(iters):
            with _span("obs.bench", "obs"):
                pass
        out["disabled"] = (time.perf_counter() - start) / iters * 1e9
        tracer.enable()
        tracer.clear()
        start = time.perf_counter()
        for _ in range(iters):
            with _span("obs.bench", "obs"):
                pass
        out["enabled"] = (time.perf_counter() - start) / iters * 1e9
        tracer.clear()
    finally:
        tracer.enabled = was_enabled
    return {key: round(value, 1) for key, value in out.items()}


def measure_overhead(repeats: int = 5, num_batches: int = 4) -> Dict:
    """Plan the smoke workload under the three instrumentation modes.

    Returns min-of-``repeats`` seconds per mode plus the headline
    ratios.  The first (unrecorded) round warms caches and imports so
    no mode pays one-time costs.
    """
    from repro.core import DCPPlanner

    scale = _smoke_scale(num_batches)
    batches = _smoke_batches(num_batches)
    planners = {
        "uninstrumented": DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config(),
            metrics=NULL_REGISTRY,
        ),
        "disabled": DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        ),
        "enabled": DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        ),
    }
    tracer = get_tracer()
    was_enabled = tracer.enabled
    times = {mode: math.inf for mode in planners}
    try:
        for round_index in range(repeats + 1):
            for mode, planner in planners.items():
                if mode == "enabled":
                    tracer.enable()
                    tracer.clear()
                else:
                    tracer.disable()
                start = time.perf_counter()
                for batch in batches:
                    planner.plan_batch(batch)
                elapsed = time.perf_counter() - start
                if round_index > 0:  # round 0 is warm-up
                    times[mode] = min(times[mode], elapsed)
        tracer.clear()
    finally:
        tracer.enabled = was_enabled
    base = times["uninstrumented"]
    return {
        "workload": {
            "token_budget": 2048,
            "block_size": 256,
            "num_batches": num_batches,
            "repeats": repeats,
        },
        "uninstrumented_s": round(base, 6),
        "disabled_s": round(times["disabled"], 6),
        "enabled_s": round(times["enabled"], 6),
        "disabled_ratio": round(times["disabled"] / base, 4),
        "enabled_ratio": round(times["enabled"] / base, 4),
        "span_ns": _span_overhead_ns(),
    }


def _histogram_brief(snapshot: Dict[str, dict], name: str) -> Dict:
    """``{count, p50_s, p99_s}`` view of one histogram snapshot."""
    snap = snapshot.get(name) or {}
    return {
        "count": int(snap.get("count", 0)),
        "p50_s": snap.get("p50"),
        "p99_s": snap.get("p99"),
    }


def plan_fetch_summary(snapshot: Dict[str, dict]) -> Dict:
    """Plan-fetch latency split by serving path, from a snapshot."""
    return {
        "hit": _histogram_brief(snapshot, "pipeline.plan_fetch_hit_s"),
        "dispatch": _histogram_brief(
            snapshot, "pipeline.plan_fetch_dispatch_s"
        ),
    }


def collect_telemetry(smoke: bool = True, num_batches: int = 4,
                      cycles: int = 2) -> Dict:
    """One traced workload across every instrumented surface.

    Runs, with tracing enabled and a single shared registry: a
    pipeline (cycle 2 serves from the plan cache, so both plan-fetch
    paths populate), KV round-trips of its cached plans, and one
    simulated execution.  Returns the registry snapshot, span
    count, and the merged Chrome trace (tracer spans + overlap
    timeline + execution lanes on one epoch).

    ``smoke=False`` uses the Fig. 18 sweep point (32768 tokens,
    512-token blocks) instead of the smoke configuration.
    """
    from repro.core import DCPPlanner, KVStore, PlanCache, batch_signature
    from repro.pipeline import (
        PipelineRunner,
        StreamingOverlapPipeline,
        cost_model_executor,
    )
    from repro.sim import (
        merge_chrome_traces,
        overlap_chrome_trace,
        simulate_plan,
        to_chrome_trace,
    )

    if smoke:
        scale = _smoke_scale(num_batches)
        batches = _smoke_batches(num_batches)
        time_scale = 3.0
    else:
        from repro.bench import PAPER_MASKS, BenchScale, make_batches

        scale = BenchScale.sweep(num_batches=num_batches, block_size=512)
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"]()
        )[:num_batches]
        time_scale = 1.0

    registry = MetricsRegistry()
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    tracer.clear(reset_origin=True)
    try:
        planner = DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config(),
            metrics=registry,
        )
        cache = PlanCache(planner, capacity=64, metrics=registry)
        pipeline = StreamingOverlapPipeline(
            list(batches) * max(cycles, 1), planner, lookahead=2,
            max_workers=2, cache=cache, metrics=registry,
        )
        runner = PipelineRunner(
            pipeline, execute=cost_model_executor(time_scale=time_scale)
        )
        stats = runner.run().stats
        overlap_trace = overlap_chrome_trace(
            stats.timeline(), clock_origin=pipeline.clock_origin
        )

        plans = [cache.peek(batch_signature(batch)) for batch in batches]

        store = KVStore(metrics=registry)
        for index, plan in enumerate(plans):
            store.put(f"plan/{index}", plan)
        for index in range(len(plans)):
            store.get(f"plan/{index}")

        timing = simulate_plan(plans[0])
        sim_trace = to_chrome_trace(timing)

        spans_recorded = len(tracer)
        obs_trace = tracer.to_chrome_trace()
        tracer.clear()
    finally:
        tracer.enabled = was_enabled

    merged = merge_chrome_traces(
        [obs_trace, overlap_trace, sim_trace],
        labels=["obs", "pipeline", "sim"],
    )
    snapshot = registry.snapshot()
    return {
        "snapshot": snapshot,
        "plan_fetch": plan_fetch_summary(snapshot),
        "spans_recorded": spans_recorded,
        "iterations": stats.iterations,
        "steady_hidden_fraction": round(stats.steady_hidden_fraction, 4),
        "trace": merged,
    }


def run_obs_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> Dict:
    """Overhead measurement + telemetry workload; one report dict.

    Writes the merged Chrome trace to ``trace_path`` when given (the
    caller owns file placement; the benchmarks wrapper points this at
    ``TRACE_obs.json`` / ``TRACE_obs.smoke.json``).
    """
    if repeats is None:
        repeats = 3 if smoke else 7
    overhead = measure_overhead(repeats=repeats)
    telemetry = collect_telemetry(smoke=smoke)
    report = {
        "benchmark": "obs_overhead_smoke" if smoke else "obs_overhead",
        "config": {
            "smoke": smoke,
            "overhead_point": "fig18-smoke (2048 tokens, 256 blocks)",
            "trace_point": (
                "fig18-smoke (2048 tokens, 256 blocks)"
                if smoke
                else "fig18-sweep (32768 tokens, 512 blocks)"
            ),
        },
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "overhead": overhead,
        "disabled_ratio": overhead["disabled_ratio"],
        "enabled_ratio": overhead["enabled_ratio"],
        "disabled_ratio_max": DEFAULT_DISABLED_RATIO_MAX,
        "enabled_ratio_max": DEFAULT_ENABLED_RATIO_MAX,
        "smoke": {
            "disabled_ratio_max": DEFAULT_SMOKE_DISABLED_RATIO_MAX,
            "enabled_ratio_max": DEFAULT_SMOKE_ENABLED_RATIO_MAX,
        },
        "required_metrics": list(REQUIRED_METRICS),
        "metrics_present": [
            name
            for name in REQUIRED_METRICS
            if name in telemetry["snapshot"]
        ],
        "plan_fetch": telemetry["plan_fetch"],
        "spans_recorded": telemetry["spans_recorded"],
        "pipeline_iterations": telemetry["iterations"],
        "steady_hidden_fraction": telemetry["steady_hidden_fraction"],
        "metrics": telemetry["snapshot"],
    }
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(telemetry["trace"], handle)
        report["trace_path"] = trace_path
        report["trace_events"] = len(telemetry["trace"]["traceEvents"])
    print(
        f"obs overhead: uninstrumented={overhead['uninstrumented_s']:.4f}s "
        f"disabled ratio={overhead['disabled_ratio']:.4f} "
        f"enabled ratio={overhead['enabled_ratio']:.4f} "
        f"span={overhead['span_ns'].get('enabled')}ns "
        f"spans={report['spans_recorded']}"
    )
    return report


def gate_failures(
    report: Dict,
    disabled_ceiling: float,
    enabled_ceiling: float,
) -> List[str]:
    """Self-gate checks shared by the ``--obs --smoke`` bench run."""
    failures: List[str] = []
    if report["disabled_ratio"] > disabled_ceiling:
        failures.append(
            f"disabled-tracer overhead ratio {report['disabled_ratio']:.4f} "
            f"above the ceiling {disabled_ceiling:.2f}"
        )
    if report["enabled_ratio"] > enabled_ceiling:
        failures.append(
            f"enabled-tracer overhead ratio {report['enabled_ratio']:.4f} "
            f"above the ceiling {enabled_ceiling:.2f}"
        )
    missing = [
        name
        for name in report["required_metrics"]
        if name not in report["metrics_present"]
    ]
    if missing:
        failures.append(f"required metrics missing: {', '.join(missing)}")
    for path, brief in report["plan_fetch"].items():
        if brief["count"] < 1:
            failures.append(f"plan-fetch {path} path observed no fetches")
    if report["spans_recorded"] < 1:
        failures.append("telemetry workload recorded no spans")
    return failures
