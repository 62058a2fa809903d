"""Overlap-pipeline benchmark: measured §6.1 planning overlap.

Drives :class:`repro.pipeline.StreamingOverlapPipeline` over the Fig.
18 sweep configuration (32768 tokens, 512-token blocks, causal mask, 2x4
devices) and *measures* — with real planner workers racing real wall
time — the fraction of planning hidden behind execution for lookahead
``kappa`` in {1, 2, 4} and several worker counts.  Execution occupies
the 8B-GPT cost-model iteration time
(:func:`repro.pipeline.cost_model_executor`), so the plan/exec ratio
is the paper's, not an artifact of this machine.

Each cell also replays the measured per-iteration plan/exec times
through the analytic model (:func:`simulate_planning_overlap`) so the
report shows measurement and model side by side.

``--streaming`` measures the online mode instead: the same Fig. 18
sweep point planned over a *generator* feeding the pipeline as the
packer emits, side by side with the list-fed (``fixed``) cell so the
report records hidden fraction *parity* between the two feedings;
three mid-stream device-removal
cells comparing how the prefetch window re-plans (``scratch`` = whole
window cold; ``delta`` = the pipeline's own re-planning, only affected
jobs, warm-started — the report's ``replan_cost_ratio``, taken between
the medians of five alternating scratch / delta runs of the planner
threads' CPU seconds spent on the re-planned iterations, and the
acceptance target ≤0.5; ``window`` = every job through the same warm
primitive, proven ``plan_fingerprint``-identical to delta); a
remove-then-re-add pair (delta and window again), whose re-add the
delta cell answers by reusing the settled window (``rebind_plan``),
proven fingerprint-identical too; a KV-backend run
whose consumer wire bytes (skeleton + own stream per device) are
compared with every device pulling the whole pickled plan, priced on
the same served plans; and a KV delta-replan cell measuring the
conditional republish/re-fetch savings (``refetch_saved_bytes``).  The
streaming report merges into ``BENCH_overlap.json`` under
``"streaming"``.  The whole-window cells run the oracle pipeline of
``tests/replan_oracles.py``.

``--obs`` runs the observability benchmark instead
(:mod:`repro.obs.bench`): tracer/metrics overhead ratios measured on
the smoke workload, the traced telemetry workload across every
instrumented surface, and the merged Perfetto trace (planner stages,
pipeline iterations, KV ops, simulated execution on one epoch).  The
full run writes ``BENCH_obs.json`` + ``TRACE_obs.json`` (trace at the
Fig. 18 sweep point); ``--obs --smoke`` writes scratch
files and *gates* on the overhead ceilings recorded in the tracked
``BENCH_obs.json`` plus required-metric presence.

Writes ``BENCH_overlap.json`` at the repo root.  ``--smoke`` runs a
small configuration and *gates*: it fails (exit 1) if the measured
steady-state hidden fraction falls below the ``smoke_floor`` recorded
in the tracked ``BENCH_overlap.json`` — the regression guard wired
into ``benchmarks/run_tier1.sh``.  ``--streaming --smoke`` gates the
streaming cell on the same fixed-stream floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py              # full
    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py --smoke      # gate
    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py --streaming  # online
    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py --streaming --smoke
    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py --obs        # telemetry
    PYTHONPATH=src python benchmarks/bench_overlap_pipeline.py --obs --smoke
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import pickle
import platform
import statistics
import time
from concurrent.futures import wait
from typing import Dict, List, Optional, Sequence

from revision import git_revision

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_overlap.json")
SMOKE_OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_overlap.smoke.json")
STREAMING_SMOKE_OUTPUT_PATH = os.path.join(
    REPO_ROOT, "BENCH_overlap.streaming.smoke.json"
)
OBS_OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_obs.json")
OBS_SMOKE_OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_obs.smoke.json")
OBS_TRACE_PATH = os.path.join(REPO_ROOT, "TRACE_obs.json")
OBS_SMOKE_TRACE_PATH = os.path.join(REPO_ROOT, "TRACE_obs.smoke.json")

#: Steady-state hidden fraction the smoke configuration must clear.
#: The smoke cell is provisioned so planning hides entirely in steady
#: state (execution ~2x planning throughput); 0.5 leaves headroom for
#: CI scheduling noise while still catching a broken pipeline (a
#: serialized pipeline measures ~0.0).
DEFAULT_SMOKE_FLOOR = 0.5

#: Execution-time multiplier of the smoke cells: execution runs ~2x
#: planning throughput, so a healthy pipeline hides its planning.
SMOKE_TIME_SCALE = 3.0

#: Ceiling on (delta replan cost) / (whole-window cold replan cost) the
#: streaming smoke must stay under.  The full Fig. 18 sweep point
#: targets <= 0.5; the smoke cells are tiny (planning is milliseconds,
#: so fixed overheads weigh more) and noisy on shared CI runners, hence
#: the looser default.  Overridable via the tracked
#: BENCH_overlap.json["streaming"]["replan_cost_ratio_max"].
DEFAULT_REPLAN_RATIO_CEILING = 0.8

#: Alternating scratch / delta re-plan runs behind ``replan_cost_ratio``.
REPLAN_REPEATS = 5

#: The whole-window re-plan oracles the delta cells are measured against.
ORACLES_PATH = os.path.join(REPO_ROOT, "tests", "replan_oracles.py")

FULL_KAPPAS = (1, 2, 4)
FULL_WORKERS = (2, 4)


def _measure_cell(
    scale,
    batches,
    kappa: int,
    workers: int,
    time_scale: float,
) -> Dict:
    """One (kappa, workers) pipeline run, fresh planner+cache."""
    from repro.core import DCPPlanner, PlanCache, simulate_planning_overlap
    from repro.pipeline import (
        PipelineRunner,
        StreamingOverlapPipeline,
        cost_model_executor,
    )

    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    cache = PlanCache(planner, capacity=64)
    pipeline = StreamingOverlapPipeline(
        batches,
        planner,
        lookahead=kappa,
        max_workers=workers,
        cache=cache,
    )
    runner = PipelineRunner(
        pipeline, execute=cost_model_executor(time_scale=time_scale)
    )
    report = runner.run()
    stats = report.stats

    # Replay the measured profile through the analytic model: does the
    # §6.1 simulation agree with what the real pipeline measured?
    plan_times = [r.plan_s for r in stats.records]
    exec_times = [r.exec_s for r in stats.records]
    predicted = simulate_planning_overlap(
        plan_times,
        exec_times,
        cores_per_machine=workers,
        lookahead=kappa,
    )

    row = {
        "kappa": kappa,
        "workers": workers,
        "iterations": stats.iterations,
        "hidden_fraction": round(stats.hidden_fraction, 4),
        "steady_hidden_fraction": round(stats.steady_hidden_fraction, 4),
        "stall_count": stats.stall_count,
        "steady_stall_count": stats.steady_stall_count,
        "total_stall_s": round(stats.total_stall_s, 4),
        "mean_plan_s": round(
            stats.total_plan_s / max(stats.iterations, 1), 4
        ),
        "mean_exec_s": round(
            stats.total_exec_s / max(stats.iterations, 1), 4
        ),
        "queue_depth_mean": round(stats.queue_depth_mean, 2),
        "queue_depth_max": stats.queue_depth_max,
        "cache_hit_rate": round(
            stats.plan_cache["hit_rate"] if stats.plan_cache else 0.0, 4
        ),
        "wall_s": round(stats.wall_s, 3),
        "predicted_stall_fraction": round(predicted.stall_fraction, 4),
    }
    print(
        f"kappa={kappa} workers={workers} "
        f"hidden={row['hidden_fraction']:.3f} "
        f"steady={row['steady_hidden_fraction']:.3f} "
        f"stalls={row['stall_count']} wall={row['wall_s']:.1f}s "
        f"cache={row['cache_hit_rate']:.2f}"
    )
    return row


def run_overlap_bench(
    token_budget: int = 32768,
    block_size: int = 512,
    mask_name: str = "causal",
    num_batches: int = 8,
    cycles: int = 2,
    kappas: Sequence[int] = FULL_KAPPAS,
    worker_counts: Sequence[int] = FULL_WORKERS,
    time_scale: float = 1.0,
    batches=None,
) -> Dict:
    """Measure the overlap grid on the Fig. 18 sweep configuration.

    ``cycles`` repeats the batch list so the plan cache sees recurring
    signatures (bucketed-batching reality): cycle 2+ plans are cache
    hits, which is part of what the pipeline is designed to exploit.
    ``batches`` overrides the dataset-driven batch list (the smoke
    configuration supplies its own: at tiny token budgets the paper
    datasets degenerate to identical batches, which would turn the
    whole run into one plan plus cache hits).
    """
    from repro.bench import BenchScale, PAPER_MASKS, make_batches

    scale = BenchScale.sweep(
        num_batches=num_batches,
        token_budget=int(token_budget),
        max_seqlen=int(token_budget),
        block_size=int(block_size),
    )
    if batches is None:
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS[mask_name]()
        )[:num_batches]
    batches = list(batches) * max(cycles, 1)

    rows: List[Dict] = []
    for kappa in kappas:
        for workers in worker_counts:
            rows.append(
                _measure_cell(scale, batches, kappa, workers, time_scale)
            )

    return {
        "benchmark": "overlap_pipeline",
        "config": {
            "token_budget": int(token_budget),
            "block_size": int(block_size),
            "mask": mask_name,
            "cluster": "2x4 (sweep)",
            "num_batches": num_batches,
            "cycles": cycles,
            "time_scale": time_scale,
        },
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke_floor": DEFAULT_SMOKE_FLOOR,
        "rows": rows,
    }


def _streaming_row(stats, kappa: int, workers: int, mode: str) -> Dict:
    """Row shape shared by the fixed/streaming/replan cells."""
    return {
        "mode": mode,
        "kappa": kappa,
        "workers": workers,
        "iterations": stats.iterations,
        "hidden_fraction": round(stats.hidden_fraction, 4),
        "steady_hidden_fraction": round(stats.steady_hidden_fraction, 4),
        "stall_count": stats.stall_count,
        "total_stall_s": round(stats.total_stall_s, 4),
        "mean_plan_s": round(stats.total_plan_s / max(stats.iterations, 1), 4),
        "mean_exec_s": round(stats.total_exec_s / max(stats.iterations, 1), 4),
        "cache_hit_rate": round(
            stats.plan_cache["hit_rate"] if stats.plan_cache else 0.0, 4
        ),
        "replans": stats.replans,
        "cluster_events": stats.cluster_events,
        "plan_retries": stats.plan_retries,
        "replan_jobs_reused": stats.replan_jobs_reused,
        "replan_plan_s": round(stats.replan_plan_s, 4),
        "wall_s": round(stats.wall_s, 3),
    }


def _replan_pipeline(replan: str):
    """Pipeline class of a re-plan cell: ``"delta"`` is the pipeline
    itself; ``"window"`` / ``"scratch"`` re-plan the whole window warm /
    cold (the oracle of ``tests/replan_oracles.py``)."""
    from repro.pipeline import StreamingOverlapPipeline

    if replan == "delta":
        return StreamingOverlapPipeline
    spec = importlib.util.spec_from_file_location(
        "replan_oracles", ORACLES_PATH
    )
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return functools.partial(
        oracles.WholeWindowPipeline, cold=replan == "scratch"
    )


def _settle_window(pipeline, timeout: float = 30.0) -> None:
    """Wait for every prefetch-window job to finish planning.

    The replan cells fire their events only after the window settled,
    so every cell (delta / window / scratch) re-dispatches the same
    fully-planned window — classification is deterministic and the
    measured re-plan cost compares like with like.
    """
    wait([item.future for item in pipeline._pending], timeout=timeout)


class _CpuTimedPlanner:
    """A planner that stamps each plan with its planning thread's CPU
    seconds (``meta["plan_cpu_s"]``).

    The re-plan cost ratio reads these rather than wall-clock plan
    intervals: planner threads share the GIL and the host's cores, so
    a wall interval also counts the time a re-plan waited to run.
    """

    def __init__(self, planner) -> None:
        self.planner = planner

    def plan_batch(self, batch, **kwargs):
        start = time.thread_time()
        plan = self.planner.plan_batch(batch, **kwargs)
        plan.meta["plan_cpu_s"] = time.thread_time() - start
        return plan


def _measure_streaming_cell(
    scale,
    batches,
    kappa: int,
    workers: int,
    time_scale: float,
    mode: str = "streaming",
    remove_machine_at: Optional[int] = None,
    replan: str = "delta",
    fingerprints: Optional[List] = None,
    readd_machine_at: Optional[int] = None,
    use_cache: bool = True,
) -> Dict:
    """One pipeline run, fed by a generator (no upfront length).

    ``mode="fixed"`` feeds the same config a materialized list instead,
    for the parity comparison; ``remove_machine_at`` fires a
    device-removal event after that iteration's execution (the replan
    cells) and ``readd_machine_at`` adds the machine back, with
    ``replan`` selecting how the window responds (``"delta"`` /
    ``"window"`` / ``"scratch"``, see :func:`_replan_pipeline`).
    ``fingerprints``, if
    given, collects ``plan_fingerprint`` of every yielded plan so the
    delta and whole-window cells can be proven identical.  The replan
    cells run cache-less (``use_cache=False``) so every re-dispatched
    job's planning cost is actually measured and the delta/window
    comparison is free of cache-policy differences.
    """
    from repro.core import DCPPlanner, PlanCache
    from repro.pipeline import (
        PipelineRunner,
        cost_model_executor,
        plan_fingerprint,
    )
    from repro.sim import ClusterEventSource

    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    cache = PlanCache(planner, capacity=64) if use_cache else None
    events = None
    if remove_machine_at is not None:
        events = ClusterEventSource(scale.cluster)
        planner = _CpuTimedPlanner(planner)
    pipeline = _replan_pipeline(replan)(
        list(batches) if mode == "fixed" else (b for b in batches),
        planner, lookahead=kappa, max_workers=workers,
        cache=cache, events=events,
    )

    def fire(index: int, _info: dict) -> None:
        if index == remove_machine_at:
            _settle_window(pipeline)
            events.remove_machines(1)
        elif index == readd_machine_at:
            _settle_window(pipeline)
            events.add_machines(1)

    inner_execute = cost_model_executor(time_scale=time_scale)
    plan_cpu_s: List[float] = []

    def execute(local_data, plan):
        if fingerprints is not None:
            fingerprints.append(plan_fingerprint(plan))
        plan_cpu_s.append(plan.meta.get("plan_cpu_s", 0.0))
        return inner_execute(local_data, plan)

    runner = PipelineRunner(
        pipeline,
        execute=execute,
        on_iteration=fire if remove_machine_at is not None else None,
    )
    stats = runner.run().stats
    row = _streaming_row(stats, kappa, workers, mode)
    if mode in ("fixed", "streaming"):
        # Plan-fetch latency split by serving path (cache hit vs
        # planner dispatch) — the planner-as-a-service p50/p99
        # baseline, read off the pipeline's metrics registry.
        from repro.obs.bench import plan_fetch_summary

        row["plan_fetch"] = plan_fetch_summary(pipeline.metrics.snapshot())
    if remove_machine_at is not None:
        row["remove_machine_at"] = remove_machine_at
        row["replan"] = replan
        row["replan_cpu_s"] = round(sum(
            cpu for cpu, record in zip(plan_cpu_s, stats.records)
            if record.replanned
        ), 4)
    if readd_machine_at is not None:
        row["readd_machine_at"] = readd_machine_at
    print(
        f"mode={mode:<13} kappa={kappa} workers={workers} "
        f"hidden={row['hidden_fraction']:.3f} "
        f"steady={row['steady_hidden_fraction']:.3f} "
        f"replans={row['replans']} reused={row['replan_jobs_reused']} "
        f"replan_s={row['replan_plan_s']:.2f} wall={row['wall_s']:.1f}s"
    )
    return row


def _measure_kv_consumer_bytes(
    scale, batches, kappa: int, workers: int, time_scale: float,
) -> tuple:
    """KV-backend cell: every device pulls its plan from the store.

    Returns ``(kv_partial, kv_full)``.  ``kv_partial`` is the run as
    measured: each device pulls the shared skeleton plus its own
    instruction stream.  ``kv_full`` is the monolithic baseline the
    §6.1 accounting compares against, priced on the same run's served
    plans: every device off the store's host machine pulling the whole
    pickled plan (what a one-value-per-plan layout moves), with the
    store traffic such a layout writes and serves.
    """
    from repro.core import DCPPlanner, KVStore
    from repro.pipeline import (
        KVPlannerBackend,
        PipelineRunner,
        StreamingOverlapPipeline,
        cost_model_executor,
    )

    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    store = KVStore()
    backend = KVPlannerBackend(
        planner, store, num_machines=2, cores_per_machine=workers
    )
    pipeline = StreamingOverlapPipeline(
        (batch for batch in batches), planner, lookahead=kappa,
        backend=backend,
    )
    timed = cost_model_executor(time_scale=time_scale)
    plans = []

    def execute(local_data, plan):
        plans.append(plan)
        return timed(local_data, plan)

    stats = PipelineRunner(pipeline, execute=execute).run().stats
    traffic = store.metrics.snapshot()
    row = {
        "mode": "kv_partial",
        "kappa": kappa,
        "iterations": stats.iterations,
        "steady_hidden_fraction": round(stats.steady_hidden_fraction, 4),
        "consumer_wire_bytes": backend.consumer_wire_bytes,
        "consumer_wire_bytes_per_iteration": int(
            backend.consumer_wire_bytes / max(stats.iterations, 1)
        ),
        "store_traffic": {
            "in": traffic["kv.bytes_in"]["value"],
            "out": traffic["kv.bytes_out"]["value"],
            "get_misses": traffic["kv.get_misses"]["value"],
        },
        "wall_s": round(stats.wall_s, 3),
    }
    pickled = [len(pickle.dumps(plan)) for plan in plans]
    full_wire_bytes = sum(
        nbytes * sum(
            plan.cluster.machine_of(device) != store.host_machine
            for device in plan.device_plans
        )
        for nbytes, plan in zip(pickled, plans)
    )
    full_row = {
        **row,
        "mode": "kv_full",
        "consumer_wire_bytes": full_wire_bytes,
        "consumer_wire_bytes_per_iteration": int(
            full_wire_bytes / max(stats.iterations, 1)
        ),
        "store_traffic": {
            "in": sum(pickled),
            "out": sum(
                nbytes * plan.num_devices
                for nbytes, plan in zip(pickled, plans)
            ),
            "get_misses": 0,
        },
    }
    for cell in (full_row, row):
        print(
            f"mode={cell['mode']:<10} kappa={kappa} "
            f"consumer_bytes={cell['consumer_wire_bytes']} "
            f"wall={cell['wall_s']:.1f}s"
        )
    return row, full_row


def _measure_kv_replan_cell(
    scale, batches, kappa: int, workers: int, time_scale: float,
    event_at: int,
) -> Dict:
    """Delta re-plan through the full KV distribution path.

    A mid-stream link degradation (inter-machine bandwidth halved)
    re-dispatches the window — the plans are shape-compatible but were
    optimized under stale link costs, so the conservative delta policy
    re-plans them warm.  The warm re-plans adopt the previous placement
    and serialize to byte-identical streams; the backend's conditional
    per-device writes then republish *nothing* per device and consumers
    re-fetching with version cursors move only the skeleton — the §6.1
    wire win of delta re-planning, measured end to end
    (``refetch_saved_bytes``/``device_entries_unchanged``).  A device
    removal, by contrast, genuinely changes every stream; its re-plan
    cost is what the thread-backend replan cells compare.
    """
    from repro.core import DCPPlanner, KVStore
    from repro.pipeline import (
        KVPlannerBackend,
        PipelineRunner,
        StreamingOverlapPipeline,
        cost_model_executor,
    )
    from repro.sim import ClusterEventSource

    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    backend = KVPlannerBackend(
        planner, KVStore(), num_machines=2, cores_per_machine=workers
    )
    events = ClusterEventSource(scale.cluster)
    pipeline = StreamingOverlapPipeline(
        (batch for batch in batches), planner, lookahead=kappa,
        backend=backend, events=events,
    )

    def fire(index: int, _info: dict) -> None:
        if index == event_at:
            _settle_window(pipeline)
            events.resize(
                inter_bandwidth=scale.cluster.inter_bandwidth / 2
            )

    runner = PipelineRunner(
        pipeline,
        execute=cost_model_executor(time_scale=time_scale),
        on_iteration=fire,
    )
    stats = runner.run().stats
    pool = {
        name: backend.metrics.counter(f"pool.{name}").value
        for name in (
            "refetch_saved_bytes",
            "device_entries_written",
            "device_entries_unchanged",
        )
    }
    row = {
        "mode": "kv_replan_delta",
        "kappa": kappa,
        "iterations": stats.iterations,
        "replans": stats.replans,
        "replan_jobs_reused": stats.replan_jobs_reused,
        "consumer_wire_bytes": backend.consumer_wire_bytes,
        **pool,
        "event_at": event_at,
        "wall_s": round(stats.wall_s, 3),
    }
    print(
        f"mode={row['mode']:<14} kappa={kappa} replans={row['replans']} "
        f"refetch_saved={row['refetch_saved_bytes']} "
        f"entries_unchanged={row['device_entries_unchanged']} "
        f"wall={row['wall_s']:.1f}s"
    )
    return row


def run_streaming_bench(
    token_budget: int = 32768,
    block_size: int = 512,
    mask_name: str = "causal",
    num_batches: int = 8,
    cycles: int = 2,
    kappa: int = 2,
    workers: int = 4,
    kv_batches: int = 4,
    time_scale: float = 1.0,
    batches=None,
) -> Dict:
    """Streaming vs fixed parity + replan + KV wire-byte cells.

    The fixed and streaming cells run the identical batch stream and
    pipeline configuration; the only difference is list vs generator
    feeding, so ``parity`` isolates the cost of not knowing the stream
    length upfront (the acceptance bound is 0.05 on the Fig. 18 sweep
    point).
    """
    from repro.bench import BenchScale, PAPER_MASKS, make_batches

    scale = BenchScale.sweep(
        num_batches=num_batches,
        token_budget=int(token_budget),
        max_seqlen=int(token_budget),
        block_size=int(block_size),
    )
    if batches is None:
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS[mask_name]()
        )[:num_batches]
    batches = list(batches) * max(cycles, 1)

    fixed = _measure_streaming_cell(
        scale, batches, kappa, workers, time_scale, mode="fixed"
    )
    streaming = _measure_streaming_cell(
        scale, batches, kappa, workers, time_scale, mode="streaming"
    )
    mid = len(batches) // 2 - 1
    # Replan cost comparison, one device-removal each, windows settled
    # before the event so all three cells re-dispatch identical work:
    # scratch = whole window cold, delta = only affected jobs,
    # warm-started, window = every job through the same warm primitive
    # (the correctness baseline delta must match).
    # Scratch and delta alternate REPLAN_REPEATS times and the cost
    # ratio is taken between the medians of their re-plans' planner CPU
    # seconds: one pair is too noisy to gate on, and wall seconds also
    # count the time a re-plan waited for the GIL or a core.
    scratch_runs: List[Dict] = []
    delta_runs: List[Dict] = []
    delta_prints: List[List] = []
    for _ in range(REPLAN_REPEATS):
        scratch_runs.append(_measure_streaming_cell(
            scale, batches, kappa, workers, time_scale, mode="replan",
            remove_machine_at=mid, replan="scratch", use_cache=False,
        ))
        delta_prints.append([])
        delta_runs.append(_measure_streaming_cell(
            scale, batches, kappa, workers, time_scale, mode="replan_delta",
            remove_machine_at=mid, replan="delta",
            fingerprints=delta_prints[-1], use_cache=False,
        ))
    replan_scratch, replan_delta = scratch_runs[0], delta_runs[0]
    window_prints: List = []
    replan_window = _measure_streaming_cell(
        scale, batches, kappa, workers, time_scale, mode="replan_window",
        remove_machine_at=mid, replan="window",
        fingerprints=window_prints, use_cache=False,
    )
    # Remove, then re-add once the re-planned window settled: delta
    # reuses the shrunk plans (rebind onto the grown shape), the
    # window oracle re-plans them warm; both must yield the same plans.
    readd_prints: Dict[str, List] = {"delta": [], "window": []}
    readd_delta, readd_window = [
        _measure_streaming_cell(
            scale, batches, kappa, workers, time_scale,
            mode=f"readd_{replan}", remove_machine_at=mid, replan=replan,
            fingerprints=readd_prints[replan], use_cache=False,
            readd_machine_at=mid + 1,
        )
        for replan in ("delta", "window")
    ]
    kv_stream = batches[:kv_batches]
    kv_partial, kv_full = _measure_kv_consumer_bytes(
        scale, kv_stream, kappa, workers, time_scale
    )
    kv_replan = _measure_kv_replan_cell(
        scale, kv_stream, kappa, workers, time_scale,
        event_at=max(len(kv_stream) // 2 - 1, 0),
    )

    parity = round(
        abs(
            fixed["steady_hidden_fraction"]
            - streaming["steady_hidden_fraction"]
        ),
        4,
    )
    wire_ratio = (
        round(
            kv_partial["consumer_wire_bytes"]
            / kv_full["consumer_wire_bytes"],
            4,
        )
        if kv_full["consumer_wire_bytes"]
        else None
    )
    scratch_s = statistics.median(r["replan_cpu_s"] for r in scratch_runs)
    delta_s = statistics.median(r["replan_cpu_s"] for r in delta_runs)
    replan_cost_ratio = (
        round(delta_s / scratch_s, 4) if scratch_s > 0 else None
    )
    fingerprints_identical = bool(window_prints) and all(
        prints == window_prints for prints in delta_prints
    )
    readd_identical = bool(readd_prints["window"]) and (
        readd_prints["delta"] == readd_prints["window"]
    )
    report = {
        "benchmark": "overlap_pipeline_streaming",
        "config": {
            "token_budget": int(token_budget),
            "block_size": int(block_size),
            "mask": mask_name,
            "cluster": "2x4 (sweep)",
            "num_batches": num_batches,
            "cycles": cycles,
            "kappa": kappa,
            "workers": workers,
            "time_scale": time_scale,
        },
        "git_revision": git_revision(),
        "rows": [
            fixed, streaming, replan_scratch, replan_delta, replan_window,
            readd_delta, readd_window, kv_full, kv_partial, kv_replan,
        ],
        "steady_hidden_parity": parity,
        "replans": replan_scratch["replans"],
        "replan_cost_ratio": replan_cost_ratio,
        "replan_cost_ratio_max": DEFAULT_REPLAN_RATIO_CEILING,
        "delta_window_fingerprints_identical": fingerprints_identical,
        "readd_fingerprints_identical": readd_identical,
        "readd_replan_jobs_reused": readd_delta["replan_jobs_reused"],
        "kv_consumer_wire_ratio": wire_ratio,
        "kv_refetch_saved_bytes": kv_replan["refetch_saved_bytes"],
        "plan_fetch": streaming["plan_fetch"],
    }
    print(
        f"parity={parity:.4f} replans={replan_scratch['replans']} "
        f"replan cost ratio={replan_cost_ratio} "
        f"delta==window: {fingerprints_identical} "
        f"re-add delta==window: {readd_identical} "
        f"(reused {readd_delta['replan_jobs_reused']}) "
        f"kv wire ratio={wire_ratio}"
    )
    return report


def run_streaming_smoke() -> Dict:
    """Small, fast streaming comparison for CI gating."""
    report = run_streaming_bench(
        token_budget=2048,
        block_size=256,
        num_batches=4,
        cycles=2,
        kappa=2,
        workers=2,
        kv_batches=4,
        time_scale=SMOKE_TIME_SCALE,
        batches=_smoke_batches(4),
    )
    report["benchmark"] = "overlap_pipeline_streaming_smoke"
    return report


def _smoke_batches(num_batches: int = 4):
    """Distinct small batches (~2048 tokens, varied lengths)."""
    from repro.blocks import BatchSpec
    from repro.masks import make_mask

    mask = make_mask("causal")
    return [
        BatchSpec.build(
            [512 + 128 * i, 384, 256 + 64 * i, 896 - 192 * i], mask
        )
        for i in range(num_batches)
    ]


def run_smoke() -> Dict:
    """Small, fast cell used by CI to gate on the hidden fraction.

    Execution is scaled to ~2x planning throughput so a healthy
    pipeline hides essentially all steady-state planning; see
    :data:`DEFAULT_SMOKE_FLOOR`.
    """
    report = run_overlap_bench(
        token_budget=2048,
        block_size=256,
        num_batches=4,
        cycles=2,
        kappas=(2,),
        worker_counts=(2,),
        time_scale=SMOKE_TIME_SCALE,
        batches=_smoke_batches(4),
    )
    report["benchmark"] = "overlap_pipeline_smoke"
    return report


def _smoke_floor() -> float:
    try:
        with open(OUTPUT_PATH) as handle:
            return float(json.load(handle)["smoke_floor"])
    except (OSError, KeyError, ValueError):
        return DEFAULT_SMOKE_FLOOR


def _replan_ratio_ceiling() -> float:
    try:
        with open(OUTPUT_PATH) as handle:
            tracked = json.load(handle)
        return float(tracked["streaming"]["replan_cost_ratio_max"])
    except (OSError, KeyError, ValueError, TypeError):
        return DEFAULT_REPLAN_RATIO_CEILING


def _obs_smoke_ceilings():
    """(disabled, enabled) smoke ratio ceilings from tracked BENCH_obs."""
    from repro.obs.bench import (
        DEFAULT_SMOKE_DISABLED_RATIO_MAX,
        DEFAULT_SMOKE_ENABLED_RATIO_MAX,
    )

    try:
        with open(OBS_OUTPUT_PATH) as handle:
            smoke = json.load(handle)["smoke"]
        return (
            float(smoke["disabled_ratio_max"]),
            float(smoke["enabled_ratio_max"]),
        )
    except (OSError, KeyError, ValueError, TypeError):
        return (
            DEFAULT_SMOKE_DISABLED_RATIO_MAX,
            DEFAULT_SMOKE_ENABLED_RATIO_MAX,
        )


def _run_obs(smoke: bool, output: Optional[str]) -> int:
    """The --obs mode: overhead + telemetry via :mod:`repro.obs.bench`.

    The smoke run gates on the ceilings recorded in the tracked
    ``BENCH_obs.json`` (falling back to the module defaults) and on
    required-metric presence; the full run rewrites the tracked report
    and the Fig. 18 sweep-point trace.
    """
    from repro.obs.bench import gate_failures, run_obs_bench

    if smoke:
        output = output or OBS_SMOKE_OUTPUT_PATH
        trace_path = OBS_SMOKE_TRACE_PATH
    else:
        output = output or OBS_OUTPUT_PATH
        trace_path = OBS_TRACE_PATH
    report = run_obs_bench(smoke=smoke, trace_path=trace_path)
    report["git_revision"] = git_revision()
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    if not smoke:
        return 0
    disabled_max, enabled_max = _obs_smoke_ceilings()
    failures = gate_failures(report, disabled_max, enabled_max)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        f"ok: obs disabled ratio {report['disabled_ratio']:.4f} <= "
        f"{disabled_max:.2f}, enabled ratio {report['enabled_ratio']:.4f} "
        f"<= {enabled_max:.2f}, "
        f"{len(report['metrics_present'])}/"
        f"{len(report['required_metrics'])} required metrics present, "
        f"{report['trace_events']} trace events"
    )
    return 0


def _merge_section_into_tracked(section: str, report: Dict) -> None:
    """Attach a named section to the tracked BENCH_overlap.json."""
    try:
        with open(OUTPUT_PATH) as handle:
            tracked = json.load(handle)
    except (OSError, ValueError):
        tracked = {"benchmark": "overlap_pipeline"}
    tracked[section] = report
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(tracked, handle, indent=2)
        handle.write("\n")
    print(f"merged {section} section into {OUTPUT_PATH}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI cell; exits 1 if steady hidden fraction is below "
        "the smoke_floor recorded in BENCH_overlap.json",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="measure the online (generator-fed) pipeline against the "
        "fixed-stream cell, plus replan and KV wire-byte cells; the "
        "full run merges into BENCH_overlap.json under 'streaming'",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="run the observability benchmark (tracer/metrics overhead "
        "+ merged Perfetto trace) instead; the full run writes "
        "BENCH_obs.json and TRACE_obs.json",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: repo root; smoke "
        "runs default to a scratch file)",
    )
    args = parser.parse_args(argv)

    if args.obs:
        return _run_obs(args.smoke, args.output)
    if args.streaming and args.smoke:
        report = run_streaming_smoke()
        output = args.output or STREAMING_SMOKE_OUTPUT_PATH
    elif args.streaming:
        report = run_streaming_bench()
        output = args.output or OUTPUT_PATH
    elif args.smoke:
        report = run_smoke()
        output = args.output or SMOKE_OUTPUT_PATH
    else:
        report = run_overlap_bench()
        output = args.output or OUTPUT_PATH

    if args.streaming and not args.smoke and output == OUTPUT_PATH:
        _merge_section_into_tracked("streaming", report)
    else:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {output}")

    if args.smoke and not args.streaming:
        floor = _smoke_floor()
        measured = report["rows"][0]["steady_hidden_fraction"]
        if measured < floor:
            print(
                f"FAIL: steady hidden fraction {measured:.3f} below the "
                f"floor {floor:.3f} recorded in BENCH_overlap.json"
            )
            return 1
        print(f"ok: steady hidden fraction {measured:.3f} >= floor {floor:.3f}")
    if args.smoke and args.streaming:
        # Gate the *streaming* cell on the fixed-stream floor: online
        # mode must hide planning as well as the fixed mode does.
        floor = _smoke_floor()
        fixed = report["rows"][0]["steady_hidden_fraction"]
        streaming = report["rows"][1]["steady_hidden_fraction"]
        failed = False
        if fixed < floor:
            print(
                f"FAIL: fixed-stream steady hidden fraction {fixed:.3f} "
                f"below the floor {floor:.3f}"
            )
            failed = True
        if streaming < floor:
            print(
                f"FAIL: streaming steady hidden fraction {streaming:.3f} "
                f"below the fixed-stream floor {floor:.3f}"
            )
            failed = True
        if report["replans"] < 1:
            print("FAIL: replan cell measured no re-plans")
            failed = True
        ratio = report["replan_cost_ratio"]
        ceiling = _replan_ratio_ceiling()
        if ratio is None:
            print("FAIL: replan cells measured no re-plan cost")
            failed = True
        elif ratio > ceiling:
            print(
                f"FAIL: delta replan cost ratio {ratio:.3f} above the "
                f"ceiling {ceiling:.3f} (delta re-planning regressed "
                f"toward whole-window cost)"
            )
            failed = True
        if not report["delta_window_fingerprints_identical"]:
            print(
                "FAIL: delta re-plan plans are not fingerprint-identical "
                "to the whole-window re-plan"
            )
            failed = True
        if not report["readd_fingerprints_identical"]:
            print(
                "FAIL: after a re-add, delta plans are not "
                "fingerprint-identical to the whole-window re-plan"
            )
            failed = True
        if report["readd_replan_jobs_reused"] < 1:
            print("FAIL: the re-add delta cell reused no plan")
            failed = True
        if failed:
            return 1
        print(
            f"ok: fixed {fixed:.3f} / streaming {streaming:.3f} >= floor "
            f"{floor:.3f}, parity {report['steady_hidden_parity']:.3f}, "
            f"replans {report['replans']}, "
            f"replan cost ratio {ratio:.3f} <= {ceiling:.3f} "
            f"(delta==window fingerprints, "
            f"re-add reused {report['readd_replan_jobs_reused']}), "
            f"kv wire ratio {report['kv_consumer_wire_ratio']}"
        )
    return 0


def test_overlap_pipeline_smoke():
    """Pytest entry point: the smoke cell must clear the floor."""
    report = run_smoke()
    assert report["rows"], "benchmark produced no rows"
    row = report["rows"][0]
    assert row["iterations"] == 8
    assert row["steady_hidden_fraction"] >= _smoke_floor()
    assert row["cache_hit_rate"] > 0.0


if __name__ == "__main__":
    raise SystemExit(main())
