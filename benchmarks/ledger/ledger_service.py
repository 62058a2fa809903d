"""``service_openloop``: the plan service under open-loop arrivals.

``PlanService(workers=2, cache_capacity=32, shards=4, replication=2,
epoch_requests=200, prewarm_top_k=16)`` over a 1x4 cluster serves hot
signatures drawn Zipf(1.1) by 1200 tenants, 3 % of requests carrying a
never-seen signature.  Set-up fetches every hot signature once; then
one precomputed Poisson schedule per offered rate (20, 40, 80 req/s) is
drained by two client threads.

This is an **open loop**: a request is sent when it is *due*, whatever
happened to the ones before it, and its latency runs from that due
time — a stall delays, and is charged to, every request queued behind
it.  How late the two clients actually sent is reported as lateness.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import ledger_checks as checks
import ledger_trace as tracing
import ledger_workloads as workloads

from repro.core import DCPPlanner
from repro.core.cache import batch_signature
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.service import PlanService

WORKLOAD = "service_openloop"
CLIENTS = 2
SERVICE_WORKERS = 2
FETCH_TIMEOUT_S = 30.0
#: The step whose generator lateness the traced run reports.
REPORT_RATE = 40
#: ``max_rate_ok``: the highest step with p95 and lateness p99 below.
P95_LIMIT_MS = 50.0
LATENESS_LIMIT_MS = 10.0
#: Distinct served signatures checked against the synchronous planner.
FINGERPRINT_CHECKS = 24


@dataclass
class StepResult:
    """Per-request outcome of one offered-rate step (request order)."""

    rate: int
    latency_s: List[float] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    plans: List[object] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    wall_s: float = 0.0


def drive_open_loop(
    fetch: Callable[[str, object], object],
    due_s: Sequence[float],
    requests: Sequence[tuple],
    clients: int = CLIENTS,
    rate: int = 0,
) -> StepResult:
    """Send ``requests[i]`` at ``due_s[i]`` from ``clients`` threads.

    Whichever client is free takes the next request in due order and
    sleeps until it is due; if every client is still busy the request
    goes out late, and both the lateness and the full wait since the
    due time are recorded.
    """
    count = len(requests)
    result = StepResult(
        rate=rate,
        latency_s=[0.0] * count,
        lateness_s=[0.0] * count,
        plans=[None] * count,
        errors=[None] * count,
    )
    lock = threading.Lock()
    cursor = iter(range(count))
    origin = time.perf_counter() + 0.02  # let every client reach its wait

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = origin + due_s[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                result.plans[index] = fetch(*requests[index])
            except Exception as exc:  # a failed fetch is a counted outcome
                result.errors[index] = f"{type(exc).__name__}: {exc}"
            result.latency_s[index] = time.perf_counter() - due
            result.lateness_s[index] = max(sent - due, 0.0)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - origin
    return result


class _Service:
    """A warm plan service and the schedule it will be offered."""

    def __init__(self, seed: int, size, scale) -> None:
        self.universe = workloads.service_universe(seed, size.hot)
        self.steps = workloads.arrival_schedule(
            seed, self.universe, size.step_s
        )
        self.planner = DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        )
        self.service = PlanService(
            self.planner,
            workers=SERVICE_WORKERS,
            cache_capacity=32,
            shards=4,
            replication=2,
            epoch_requests=200,
            prewarm_top_k=16,
        )
        # Coldest first, so the hottest signatures end up in the cache.
        for batch in reversed(self.universe):
            self.fetch("warmup", batch)

    def fetch(self, tenant: str, batch):
        return self.service.fetch_plan(tenant, batch, timeout=FETCH_TIMEOUT_S)

    def close(self) -> None:
        self.service.close()

    def drive(self):
        """Offer every rate step; returns (results, cpu_s, stats delta)."""
        before = self.service.stats()
        cpu_start = time.process_time()
        results = [
            drive_open_loop(
                self.fetch,
                step.due_s,
                list(zip(step.tenants, step.batches)),
                rate=step.rate,
            )
            for step in self.steps
        ]
        cpu_s = time.process_time() - cpu_start
        after = self.service.stats()
        delta = {
            key: after[key] - before[key]
            for key in after
            if isinstance(after[key], (int, float))
        }
        return results, cpu_s, delta


def _setup(seed: int, seconds: float, smoke: bool):
    scale = workloads.scale_for(WORKLOAD, smoke)
    size = workloads.sizing(WORKLOAD, seconds, smoke)
    served, setup_s = tracing.median_setup(
        lambda: _Service(seed, size, scale),
        close=_Service.close,
        repeats=tracing.setup_repeats(smoke),
    )
    return scale, served, setup_s


def _served_by_signature(served: _Service, results) -> Dict[object, tuple]:
    """First served plan of every distinct signature, hot ranks first."""
    found: Dict[object, tuple] = {}
    for step, result in zip(served.steps, results):
        for batch, plan in zip(step.batches, result.plans):
            if plan is not None:
                found.setdefault(batch_signature(batch), (batch, plan))
    rank = {batch_signature(b): i for i, b in enumerate(served.universe)}
    return dict(
        sorted(found.items(), key=lambda item: rank.get(item[0], len(rank)))
    )


def _check_outputs(outcome, served: _Service, results, scale) -> list:
    """Every fetch must succeed; served plans must validate, equal the
    synchronous planner's, and two of them execute to the reference."""
    for result in results:
        for index, error in enumerate(result.errors):
            outcome.check(
                error is None, f"{WORKLOAD} r{result.rate}[{index}]: {error}"
            )
    distinct = list(_served_by_signature(served, results).values())
    reference = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    # Hottest signatures and, from the tail of the list, fresh ones.
    half = FINGERPRINT_CHECKS // 2
    for batch, plan in distinct[:half] + distinct[half:][-half:]:
        label = f"{WORKLOAD} {[s.seqlen for s in batch.sequences]}"
        outcome.record(checks.validation_failure(plan, label))
        outcome.record(
            checks.fingerprint_failure(
                plan, reference.plan_batch(batch), label
            )
        )
    checks.numeric_checks(
        outcome, [plan for _batch, plan in distinct[:2]], f"{WORKLOAD} served"
    )
    return distinct


def _latency_ms(result: StepResult) -> List[float]:
    return [1e3 * value for value in result.latency_s]


def run_untraced(workload, seed, seconds, smoke) -> checks.Outcome:
    """End-to-end metrics of the clients, obs tracer off."""
    scale, served, setup_s = _setup(seed, seconds, smoke)
    try:
        results, _cpu_s, _delta = served.drive()
        peak_rss = tracing.peak_rss_mb()
        outcome = checks.Outcome()
        distinct = _check_outputs(outcome, served, results, scale)
        obs_metrics = served.service.metrics.snapshot()
    finally:
        served.close()

    requests = sum(len(result.latency_s) for result in results)
    tokens = sum(
        batch.total_tokens for step in served.steps for batch in step.batches
    )
    waits_ms = [ms for result in results for ms in _latency_ms(result)]
    outcome.metrics = {
        "setup_s": setup_s,
        "plan_tokens_per_s": tokens / sum(r.wall_s for r in results),
        "wait_ms_p50": tracing.percentile(waits_ms, 50),
        "peak_rss_mb": peak_rss,
        # One row per distinct signature served, not per request.
        **checks.delivered_quality(
            [checks.price(plan) for _batch, plan in distinct]
        ),
    }
    outcome.detail.update(
        operations=requests,
        wait_ms=tracing.summary(waits_ms),
        measured_s=sum(r.wall_s for r in results),
        lateness_p99_ms={
            f"r{r.rate}": 1e3 * tracing.percentile(r.lateness_s, 99)
            for r in results
        },
        raw_latency_ms={f"r{r.rate}": _latency_ms(r) for r in results},
        obs_metrics=obs_metrics,
    )
    return outcome


def _max_rate_ok(results: Sequence[StepResult]) -> int:
    ok = 0
    for result in results:
        if (
            tracing.percentile(_latency_ms(result), 95) <= P95_LIMIT_MS
            and 1e3 * tracing.percentile(result.lateness_s, 99)
            <= LATENESS_LIMIT_MS
            and not any(result.errors)
        ):
            ok = max(ok, result.rate)
    return ok


def run_traced(workload, seed, seconds, smoke, trace_path) -> checks.Outcome:
    """Per-layer metrics: the same offered load with the obs tracer on."""
    scale, served, _ = _setup(seed, seconds, smoke)
    tracer = get_tracer()
    try:
        enable_tracing()
        try:
            results, cpu_s, delta = served.drive()
        finally:
            disable_tracing()
        recorder = tracing.SpanRecorder()
        recorder.adopt(tracer.spans())
        tracer.clear()
        outcome = checks.Outcome()
        distinct = _check_outputs(outcome, served, results, scale)
        obs_metrics = served.service.metrics.snapshot()
    finally:
        served.close()

    requests = sum(len(result.latency_s) for result in results)
    wall_s = sum(result.wall_s for result in results)
    plan_s = [
        s["end"] - s["start"] for s in recorder.spans if s["name"] == "plan_batch"
    ] or [0.0]
    overhead = checks.trace_overhead(
        DCPPlanner(scale.cluster, scale.attention, scale.dcp_config()),
        served.universe[:4],
    )

    metrics = tracing.planner_layer_metrics(recorder)
    metrics.update(
        checks.plan_layer_metrics([plan for _batch, plan in distinct])
    )
    metrics.update(checks.refine_counts(served.planner.metrics))
    for result in results:
        latency = _latency_ms(result)
        metrics[f"service.fetch_p50_ms.r{result.rate}"] = tracing.percentile(
            latency, 50
        )
        metrics[f"service.fetch_p95_ms.r{result.rate}"] = tracing.percentile(
            latency, 95
        )
    reported = next(r for r in results if r.rate == REPORT_RATE)
    hit_rate = delta["cache_hits"] / delta["requests"]
    metrics.update(
        {
            "core.plan_s_p50": tracing.percentile(plan_s, 50),
            "core.plan_s_tail": tracing.tail(plan_s),
            "core.cache_hit_rate": hit_rate,
            "service.fetch_tail_ms.r80": tracing.tail(
                _latency_ms(results[-1])
            ),
            "service.lateness_p99_ms": 1e3
            * tracing.percentile(reported.lateness_s, 99),
            "service.max_rate_ok": _max_rate_ok(results),
            "service.cpu_ms_per_fetch": 1e3 * cpu_s / requests,
            "service.cache_hit_rate": hit_rate,
            "service.store_hit_rate": delta["store_hits"] / delta["requests"],
            "service.planned": delta["planned"],
            "service.prewarm_plans": delta["prewarm_submitted"],
            "service.rejected": delta["rejected"],
            "service.worker_util": delta["worker_busy_s"]
            / (SERVICE_WORKERS * wall_s),
            "runtime.exec_s": outcome.detail["runtime.exec_s"],
            "runtime.max_abs_err": outcome.detail["runtime.max_abs_err"],
            "obs.trace_overhead_frac": overhead["overhead_frac"],
        }
    )
    outcome.metrics = metrics
    outcome.detail.update(
        operations=requests,
        latency_ms={
            f"r{r.rate}": tracing.summary(_latency_ms(r)) for r in results
        },
        lateness_p99_ms={
            f"r{r.rate}": 1e3 * tracing.percentile(r.lateness_s, 99)
            for r in results
        },
        service_stats=delta,
        obs_metrics=obs_metrics,
    )
    recorder.write(trace_path)
    return outcome
