"""``causal_long`` and ``sparse_mixed``: synchronous planning.

Each batch goes ``DCPPlanner.plan_batch`` -> ``encode_plan`` ->
per-device ``PlanWire.device_bytes`` + ``decode_device_payload`` ->
``simulate_plan`` forward + backward.  The untraced run times that path
per batch; the traced run replays the first quarter of the batches as
direct calls into each layer's public function, one span each, and
requires the decomposed plan to equal ``plan_batch``'s.
"""

from __future__ import annotations

import time
from typing import Dict, List

import ledger_checks as checks
import ledger_trace as tracing
import ledger_workloads as workloads

from repro.blocks import generate_blocks
from repro.core import DCPPlanner
from repro.core.planwire import decode_device_payload, encode_plan
from repro.hypergraph import COUNTERS
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import plan_fingerprint
from repro.placement import build_block_hypergraph, place_blocks
from repro.scheduling import build_schedule, serialize_schedule, validate_plan

#: Layer spans of one decomposed batch must cover this share of it.
MIN_SPAN_COVERAGE = 0.95


def _decode_all(plan, wire) -> Dict[int, object]:
    return {
        device: decode_device_payload(wire.device_bytes(device))[1]
        for device in sorted(plan.device_plans)
    }


def deliver(planner: DCPPlanner, spec, cluster) -> dict:
    """One batch through the whole synchronous path, timed."""
    start = time.perf_counter()
    plan = planner.plan_batch(spec)
    planned = time.perf_counter()
    wire = encode_plan(plan)
    decoded = _decode_all(plan, wire)
    delivered = time.perf_counter()
    sim = checks.simulate(plan, cluster)
    end = time.perf_counter()
    return {
        "plan": plan,
        "wire": wire,
        "decoded": decoded,
        "sim": sim,
        "plan_s": planned - start,
        "wait_s": delivered - start,
        "wall_s": end - start,
        "tokens": spec.total_tokens,
    }


def _setup(workload: str, seed: int, size, scale, smoke: bool):
    def build():
        specs, stream = workloads.planning_specs(
            workload, seed, size.batches, scale, smoke
        )
        planner = DCPPlanner(
            scale.cluster, scale.attention, scale.dcp_config()
        )
        deliver(planner, workloads.warmup_spec(scale), scale.cluster)
        return specs, stream, planner

    return tracing.median_setup(build, repeats=tracing.setup_repeats(smoke))


def _check_delivery(outcome, row: dict, label: str) -> None:
    """Output checks of one delivered batch (outside its timed region)."""
    outcome.record(checks.validation_failure(row["plan"], label))
    outcome.record(
        checks.wire_failure(row["plan"], row["wire"], row["decoded"], label)
    )


def _numeric(outcome, workload: str, seed: int, scale, smoke: bool) -> None:
    reduced = workloads.reduced_scale(scale, smoke)
    specs, _ = workloads.planning_specs(workload, seed, 2, reduced, smoke)
    checks.numeric_checks(
        outcome, checks.reduced_plans(reduced, specs), f"{workload} reduced"
    )


def run_untraced(workload, seed, seconds, smoke) -> checks.Outcome:
    """End-to-end metrics: every batch through the path, tracing off."""
    scale = workloads.scale_for(workload, smoke)
    size = workloads.sizing(workload, seconds, smoke)
    (specs, _stream, planner), setup_s = _setup(
        workload, seed, size, scale, smoke
    )
    outcome = checks.Outcome()
    rows: List[dict] = []
    for index, spec in enumerate(specs):
        row = deliver(planner, spec, scale.cluster)
        _check_delivery(outcome, row, f"{workload}[{index}]")
        row["priced"] = checks.price(row["plan"], row["sim"]["ms"])
        for key in ("plan", "wire", "decoded"):
            del row[key]  # keep resident memory flat across the run
        rows.append(row)
    peak_rss = tracing.peak_rss_mb()
    _numeric(outcome, workload, seed, scale, smoke)

    waits_ms = [1e3 * row["wait_s"] for row in rows]
    outcome.metrics = {
        "setup_s": setup_s,
        "plan_tokens_per_s": sum(r["tokens"] for r in rows)
        / sum(r["wall_s"] for r in rows),
        "wait_ms_p50": tracing.percentile(waits_ms, 50),
        "peak_rss_mb": peak_rss,
        **checks.delivered_quality([row["priced"] for row in rows]),
    }
    outcome.detail.update(
        operations=len(rows),
        wait_ms=tracing.summary(waits_ms),
        measured_s=sum(r["wall_s"] for r in rows),
        obs_metrics=planner.metrics.snapshot(),
    )
    return outcome


def _replay(recorder, planner, spec, scale, op: int) -> dict:
    """One batch as direct calls into each layer, one span each."""
    config, cluster = planner.config, scale.cluster
    tracer = get_tracer()
    COUNTERS.reset()
    enable_tracing()
    try:
        with recorder.span("batch", op) as batch:
            with recorder.span("blocks.generate", op):
                block_set = generate_blocks(
                    spec,
                    attention=scale.attention,
                    block_size=config.block_size,
                )
            with recorder.span("placement.place", op) as place:
                placement = place_blocks(
                    block_set, cluster, config.placement_config()
                )
            counters = COUNTERS.snapshot()
            with recorder.span("scheduling.schedule", op):
                schedule = build_schedule(
                    block_set,
                    placement,
                    num_divisions=config.num_divisions,
                    strategy=config.scheduler,
                )
            with recorder.span("scheduling.serialize", op):
                plan = serialize_schedule(schedule)
            with recorder.span("core.wire_encode", op):
                wire = encode_plan(plan)
            with recorder.span("core.wire_decode", op):
                _decode_all(plan, wire)
            with recorder.span("sim.simulate", op):
                checks.simulate(plan, cluster)
    finally:
        disable_tracing()
    # Only place_blocks emits obs spans on this path.
    recorder.adopt(tracer.spans(), parent=place["id"], op=op)
    tracer.clear()
    # Probes of calls plan_batch makes inside a layer or not at all;
    # outside the batch span, so they are not part of its wall time.
    with recorder.span("placement.build", op):
        build_block_hypergraph(block_set)
    with recorder.span("scheduling.validate", op):
        validate_plan(plan)
    children = sum(
        s["end"] - s["start"]
        for s in recorder.spans
        if s["parent"] == batch["id"]
    )
    wall = batch["end"] - batch["start"]
    return {
        "plan": plan,
        "wall_s": wall,
        "coverage": children / wall,
        "placement_share": (place["end"] - place["start"]) / wall,
        "gain_evals": counters["gain_evals"],
        "refine_moves": counters["moves"],
    }


def run_traced(workload, seed, seconds, smoke, trace_path) -> checks.Outcome:
    """Per-layer metrics: the first quarter of the batches, decomposed."""
    scale = workloads.scale_for(workload, smoke)
    size = workloads.sizing(workload, seconds, smoke)
    (specs, stream, planner), _ = _setup(
        workload, seed, size, scale, smoke
    )
    specs = specs[: max(len(specs) // 4, 2)]
    outcome = checks.Outcome()
    recorder = tracing.SpanRecorder()
    whole, parts = [], []
    for index, spec in enumerate(specs):
        label = f"{workload}[{index}]"
        row = deliver(planner, spec, scale.cluster)
        part = _replay(recorder, planner, spec, scale, index)
        outcome.check(
            plan_fingerprint(part["plan"]) == plan_fingerprint(row["plan"]),
            f"{label}: decomposed plan differs from plan_batch's",
        )
        outcome.check(
            part["coverage"] >= MIN_SPAN_COVERAGE,
            f"{label}: layer spans cover {part['coverage']:.3f} of the batch",
        )
        whole.append(row)
        parts.append(part)
    _numeric(outcome, workload, seed, scale, smoke)

    plan_s = [row["plan_s"] for row in whole]
    metrics = checks.plan_layer_metrics([row["plan"] for row in whole])
    # Spans of the replay beat probes: they time encode / decode in place.
    metrics.update(tracing.planner_layer_metrics(recorder))
    metrics.update(
        {
            "data.pack_s": stream.pack_s_per_batch,
            "data.workload_imbalance": stream.workload_imbalance,
            "hypergraph.gain_evals": checks.mean_of(parts, "gain_evals"),
            "hypergraph.refine_moves": checks.mean_of(parts, "refine_moves"),
            "placement.build_s": recorder.total(["placement.build"])
            / len(parts),
            "scheduling.validate_s": recorder.total(["scheduling.validate"])
            / len(parts),
            "core.plan_s_p50": tracing.percentile(plan_s, 50),
            "core.plan_s_tail": tracing.tail(plan_s),
            "runtime.exec_s": outcome.detail["runtime.exec_s"],
            "runtime.max_abs_err": outcome.detail["runtime.max_abs_err"],
            "obs.trace_overhead_frac": sum(p["wall_s"] for p in parts)
            / sum(r["wall_s"] for r in whole)
            - 1.0,
        }
    )
    outcome.metrics = metrics
    outcome.detail.update(
        operations=len(parts),
        plan_s=tracing.summary(plan_s),
        span_coverage_min=min(p["coverage"] for p in parts),
        placement_share=checks.mean_of(parts, "placement_share"),
        obs_metrics=planner.metrics.snapshot(),
    )
    recorder.write(trace_path)
    return outcome
