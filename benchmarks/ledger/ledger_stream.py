"""``stream_replan``: the streaming overlap pipeline under cluster events.

A few distinct batches are replayed for several epochs through
``StreamingOverlapPipeline`` built with its *defaults* for ``backend``
and ``replan_mode`` (neither is passed, so a later change of default is
measured, not dodged), ``lookahead=2``, ``max_workers=2`` and a
``PlanCache``; one machine is removed after the first third of the
iterations and added back after the second.  ``PipelineRunner`` consumes
the plans with ``cost_model_executor(time_scale=0.25)``.

This is a closed loop with one consumer: the next plan is requested
when the previous iteration's (modelled) execution ends.
"""

from __future__ import annotations

import time
from typing import Dict, List

import ledger_checks as checks
import ledger_trace as tracing
import ledger_workloads as workloads

from repro.core import DCPPlanner, PlanCache
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import (
    PipelineRunner,
    StreamingOverlapPipeline,
    cost_model_executor,
    plan_fingerprint,
)
from repro.sim import ClusterEventSource

LOOKAHEAD = 2
MAX_WORKERS = 2
CACHE_CAPACITY = 64
EXEC_TIME_SCALE = 0.25
WORKLOAD = "stream_replan"


class _Stream:
    """Everything one run of the pipeline needs, built during set-up."""

    def __init__(self, seed: int, size, scale, smoke: bool) -> None:
        self.specs, self.packed = workloads.planning_specs(
            WORKLOAD, seed, size.distinct, scale, smoke
        )
        self.iterations = size.distinct * size.epochs
        self.planner = DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        )
        self.planner.plan_batch(workloads.warmup_spec(scale))
        self.events = ClusterEventSource(scale.cluster)
        self.cache = PlanCache(self.planner, capacity=CACHE_CAPACITY)
        distinct = len(self.specs)
        self.pipeline = StreamingOverlapPipeline(
            (self.specs[i % distinct] for i in range(self.iterations)),
            self.planner,
            lookahead=LOOKAHEAD,
            max_workers=MAX_WORKERS,
            cache=self.cache,
            events=self.events,
        )
        self.served: List[tuple] = []  # (plan, this iteration's record)

    def close(self) -> None:
        self.pipeline.close()

    def drive(self):
        """Consume the whole stream; returns (report, wall_s)."""
        remove_after = self.iterations // 3 - 1
        add_after = 2 * self.iterations // 3 - 1
        occupy = cost_model_executor(time_scale=EXEC_TIME_SCALE)

        def execute(local_data, plan):
            record = dict(plan.meta["overlap"])
            record.pop("running")
            self.served.append((plan, record))
            return occupy(local_data, plan)

        def on_iteration(index: int, _info: dict) -> None:
            if index == remove_after:
                self.events.remove_machines(1)
            elif index == add_after:
                self.events.add_machines(1)

        start = time.perf_counter()
        report = PipelineRunner(
            self.pipeline, execute=execute, on_iteration=on_iteration
        ).run()
        return report, time.perf_counter() - start


def _setup(seed: int, seconds: float, smoke: bool):
    scale = workloads.scale_for(WORKLOAD, smoke)
    size = workloads.sizing(WORKLOAD, seconds, smoke)
    stream, setup_s = tracing.median_setup(
        lambda: _Stream(seed, size, scale, smoke),
        close=_Stream.close,
        repeats=tracing.setup_repeats(smoke),
    )
    return scale, stream, setup_s


def _distinct_plans(stream: _Stream, served=None) -> Dict[int, object]:
    """Served plans by identity (a cache hit serves the same object)."""
    served = stream.served if served is None else served
    return {id(plan): plan for plan, _record in served}


def _check_outputs(outcome, stream: _Stream, scale, seed, smoke) -> dict:
    """Validate every served plan; pre-event plans must equal the
    synchronous planner's.  Returns the standalone planning seconds."""
    for index, plan in enumerate(_distinct_plans(stream).values()):
        outcome.record(
            checks.validation_failure(plan, f"{WORKLOAD} plan {index}")
        )
    reference = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    standalone_s, sync_plans = [], []
    for spec in stream.specs:
        start = time.perf_counter()
        sync_plans.append(reference.plan_batch(spec))
        standalone_s.append(time.perf_counter() - start)
    before_event = stream.iterations // 3
    sync_prints = [plan_fingerprint(plan) for plan in sync_plans]
    served_prints = {
        key: plan_fingerprint(plan)
        for key, plan in _distinct_plans(
            stream, stream.served[:before_event]
        ).items()
    }
    for index, (plan, _record) in enumerate(stream.served[:before_event]):
        outcome.check(
            served_prints[id(plan)] == sync_prints[index % len(sync_prints)],
            f"{WORKLOAD} iteration {index}: plan differs from the "
            f"synchronous planner's",
        )
    reduced = workloads.reduced_scale(scale, smoke)
    specs, _ = workloads.planning_specs(WORKLOAD, seed, 2, reduced, smoke)
    checks.numeric_checks(
        outcome, checks.reduced_plans(reduced, specs), f"{WORKLOAD} reduced"
    )
    return {"standalone_s": standalone_s, "reference": reference}


def run_untraced(workload, seed, seconds, smoke) -> checks.Outcome:
    """End-to-end metrics of the consumer, obs tracer off."""
    scale, stream, setup_s = _setup(seed, seconds, smoke)
    try:
        report, wall_s = stream.drive()
    finally:
        stream.close()  # a drive that fails must not leave planner workers
    stats = report.stats
    outcome = checks.Outcome()
    outcome.check(
        stats.iterations == stream.iterations,
        f"{WORKLOAD}: consumed {stats.iterations} of {stream.iterations}",
    )
    peak_rss = tracing.peak_rss_mb()
    _check_outputs(outcome, stream, scale, seed, smoke)

    stalls_ms = [1e3 * record.stall for record in stats.records]
    tokens = sum(plan.block_set.batch.total_tokens for plan, _ in stream.served)
    priced = {
        key: checks.price(plan)
        for key, plan in _distinct_plans(stream).items()
    }
    outcome.metrics = {
        "setup_s": setup_s,
        "plan_tokens_per_s": tokens / wall_s,
        "wait_ms_p50": tracing.percentile(stalls_ms, 50),
        "peak_rss_mb": peak_rss,
        **checks.delivered_quality(
            [priced[id(plan)] for plan, _record in stream.served]
        ),
    }
    outcome.detail.update(
        operations=stats.iterations,
        wait_ms=tracing.summary(stalls_ms),
        measured_s=wall_s,
        cache_hit_share=stats.cache_hits / stats.iterations,
        obs_metrics={
            **stream.planner.metrics.snapshot(),
            **stream.pipeline.metrics.snapshot(),
        },
    )
    return outcome


def run_traced(workload, seed, seconds, smoke, trace_path) -> checks.Outcome:
    """Per-layer metrics: the same run with the obs tracer on."""
    scale, stream, _ = _setup(seed, seconds, smoke)
    tracer = get_tracer()
    enable_tracing()
    try:
        report, wall_s = stream.drive()
    finally:
        disable_tracing()
        stream.close()
    recorder = tracing.SpanRecorder()
    recorder.adopt(tracer.spans())
    tracer.clear()
    stats = report.stats
    outcome = checks.Outcome()
    outcome.check(
        stats.iterations == stream.iterations,
        f"{WORKLOAD}: consumed {stats.iterations} of {stream.iterations}",
    )
    checked = _check_outputs(outcome, stream, scale, seed, smoke)

    plans = list(_distinct_plans(stream).values())
    records = stats.records
    cold = [
        r.plan_s for r in records[: len(stream.specs)] if not r.cache_hit
    ]
    hits_ms = [1e3 * r.stall for r in records if r.cache_hit]
    warm_place_s = [
        plan.meta["planning_stats"].placement
        for plan, record in stream.served
        if record["replanned"]
    ]
    plan_s = [
        s["end"] - s["start"] for s in recorder.spans if s["name"] == "plan_batch"
    ]
    overhead = checks.trace_overhead(checked["reference"], stream.specs[:8])
    cache = stats.plan_cache or {}

    metrics = tracing.planner_layer_metrics(recorder)
    metrics.update(checks.plan_layer_metrics(plans))
    metrics.update(checks.refine_counts(stream.planner.metrics))
    metrics.update(
        {
            "data.pack_s": stream.packed.pack_s_per_batch,
            "data.workload_imbalance": stream.packed.workload_imbalance,
            "placement.warm_place_s": checks.mean(warm_place_s),
            "core.plan_s_p50": tracing.percentile(plan_s, 50),
            "core.plan_s_tail": tracing.tail(plan_s),
            "core.cache_hit_rate": stats.cache_hits / stats.iterations,
            "core.cache_remapped": cache.get("remapped", 0),
            "pipeline.iters_per_s": stats.iterations / wall_s,
            "pipeline.stall_ms_per_iter": 1e3
            * stats.total_stall_s
            / stats.iterations,
            "pipeline.plan_inflation": checks.mean(cold)
            / checks.mean(checked["standalone_s"]),
            "pipeline.hidden_frac": stats.hidden_fraction,
            "pipeline.steady_hidden_frac": stats.steady_hidden_fraction,
            "pipeline.fetch_hit_ms": checks.mean(hits_ms),
            "pipeline.replans": stats.replans,
            "pipeline.replan_jobs_reused": stats.replan_jobs_reused,
            "pipeline.replan_plan_s": stats.replan_plan_s,
            "runtime.exec_s": outcome.detail["runtime.exec_s"],
            "runtime.max_abs_err": outcome.detail["runtime.max_abs_err"],
            "obs.trace_overhead_frac": overhead["overhead_frac"],
        }
    )
    outcome.metrics = metrics
    outcome.detail.update(
        operations=stats.iterations,
        plan_s=tracing.summary(plan_s),
        standalone_plan_s=checks.mean(checked["standalone_s"]),
        in_pipeline_cold_plan_s=checks.mean(cold),
        cache_hit_share=stats.cache_hits / stats.iterations,
        plan_cache=cache,
        obs_metrics={
            **stream.planner.metrics.snapshot(),
            **stream.pipeline.metrics.snapshot(),
        },
    )
    recorder.write(trace_path)
    return outcome
