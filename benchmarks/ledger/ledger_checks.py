"""Output checks, plan-quality numbers and small probes shared by the
workload drivers.

Every check returns failure strings rather than raising, so one run
counts all its failures against the operations it attempted.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.core import DCPPlanner
from repro.core.planwire import (
    decode_plan,
    encode_device_payload,
    encode_plan,
)
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import PlanRing, ShmUnavailable, plan_fingerprint
from repro.placement import Placement
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.scheduling import CommLaunch, PlanValidationError, validate_plan
from repro.service.sharding import ShardedPlanStore
from repro.sim import simulate_plan

#: Tolerances of the executor-vs-reference numeric check.
RTOL, ATOL = 2e-4, 2e-5
#: Repetitions of the one-plan store / ring probes (median reported).
PROBE_REPEATS = 15


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one output check; ``message`` names it when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def record(self, failure: Optional[str]) -> None:
        """Count one output check given as a failure string or ``None``."""
        self.check(failure is None, failure or "")


def validation_failure(plan, label: str) -> Optional[str]:
    """``validate_plan`` as a failure string (``None``: valid)."""
    try:
        validate_plan(plan)
    except PlanValidationError as exc:
        return f"{label}: validate_plan: {exc}"
    return None


def wire_failure(plan, wire, decoded: Dict[int, object], label: str):
    """Decoded device payloads must re-encode to the bytes on the wire."""
    for device, device_plan in decoded.items():
        if encode_device_payload(device, device_plan) != bytes(
            wire.device_bytes(device)
        ):
            return f"{label}: device {device} payload changed on the wire"
    if set(decoded) != set(plan.device_plans):
        return f"{label}: decoded devices differ from the plan's"
    return None


def fingerprint_failure(plan, reference, label: str) -> Optional[str]:
    if plan_fingerprint(plan) != plan_fingerprint(reference):
        return f"{label}: plan differs from the synchronous planner's"
    return None


# -- simulated attention time, against the static baselines ---------------


def simulate(plan, cluster) -> dict:
    """Forward + backward simulated attention of one plan."""
    start = time.perf_counter()
    forward = simulate_plan(plan, cluster, backward=False)
    backward = simulate_plan(plan, cluster, backward=True)
    elapsed = time.perf_counter() - start
    exposed = sum(
        result.breakdown()["non_ovlp_comm"] for result in (forward, backward)
    )
    total = forward.iteration_time + backward.iteration_time
    return {
        "ms": 1e3 * total,
        "simulate_s": elapsed,
        "exposed_comm_frac": exposed / total if total else 0.0,
    }


def baseline_ms(planner, plan, cluster) -> float:
    """Simulated fwd + bwd ms of a static baseline on ``plan``'s blocks."""
    return simulate(planner.plan(plan.block_set, cluster), cluster)["ms"]


def te_ms(plan, cluster) -> float:
    return baseline_ms(TransformerEnginePlanner(), plan, cluster)


def ring_ms(plan, cluster) -> float:
    return baseline_ms(RingAttentionPlanner(), plan, cluster)


# -- plan quality ----------------------------------------------------------


def plan_quality(plan, cluster) -> dict:
    """Deterministic quality numbers of one DCP plan."""
    inter = sum(
        send.nbytes
        for device, device_plan in plan.device_plans.items()
        for instruction in device_plan.instructions
        if isinstance(instruction, CommLaunch)
        for send in instruction.sends
        if not cluster.same_machine(device, send.peer)
    )
    quality = {
        "comm_mb": plan.total_comm_bytes() / 1e6,
        "inter_machine_mb": inter / 1e6,
        "instructions": sum(
            len(dp.instructions) for dp in plan.device_plans.values()
        ),
        "comp_blocks": len(plan.block_set.comp_array),
    }
    labels = plan.meta.get("placement")
    if labels is not None:
        flops = Placement(
            plan.block_set, cluster, labels[0], labels[1]
        ).flops_per_device()
        quality["compute_imbalance"] = float(flops.max() / flops.mean() - 1.0)
    stats = plan.meta.get("planning_stats")
    if stats is not None:
        quality["vertices"] = stats.num_vertices
        quality["edges"] = stats.num_edges
    return quality


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for no samples (a layer that did no work)."""
    return float(np.mean(values)) if len(values) else 0.0


def mean_of(rows: Sequence[dict], key: str) -> float:
    return mean([row[key] for row in rows if key in row])


def price(plan, dcp_ms: Optional[float] = None) -> tuple:
    """(DCP ms, TransformerEngine ms, comm MB) of one delivered plan, on
    the plan's own cluster; ``dcp_ms`` passes a time already simulated."""
    if dcp_ms is None:
        dcp_ms = simulate(plan, plan.cluster)["ms"]
    return dcp_ms, te_ms(plan, plan.cluster), plan.total_comm_bytes() / 1e6


def delivered_quality(priced: Sequence[tuple]) -> Dict[str, float]:
    """The plan-quality end-to-end metrics over one :func:`price` row
    per operation (a plan served twice counts twice)."""
    dcp_total = sum(row[0] for row in priced)
    return {
        "attn_sim_ms": dcp_total / len(priced),
        "comm_mb_per_batch": mean([row[2] for row in priced]),
        "attn_speedup_vs_te": sum(row[1] for row in priced) / dcp_total,
    }


def plan_layer_metrics(plans: Sequence) -> Dict[str, float]:
    """Per-layer numbers read off the distinct plans of a traced run."""
    quality = [plan_quality(plan, plan.cluster) for plan in plans]
    encode_s, decode_s, wire_bytes = [], [], []
    for plan in plans:
        start = time.perf_counter()
        blob = encode_plan(plan).to_bytes()
        mid = time.perf_counter()
        decode_plan(blob)
        decode_s.append(time.perf_counter() - mid)
        encode_s.append(mid - start)
        wire_bytes.append(len(blob))
    metrics = {
        "blocks.comp_blocks": mean_of(quality, "comp_blocks"),
        "hypergraph.vertices": mean_of(quality, "vertices"),
        "hypergraph.edges": mean_of(quality, "edges"),
        "placement.inter_machine_mb": mean_of(quality, "inter_machine_mb"),
        "placement.compute_imbalance": mean_of(quality, "compute_imbalance"),
        "scheduling.instructions": mean_of(quality, "instructions"),
        "core.wire_encode_s": mean(encode_s),
        "core.wire_decode_s": mean(decode_s),
        "core.wire_bytes": mean(wire_bytes),
        "sim.exposed_comm_frac": mean(
            [simulate(p, p.cluster)["exposed_comm_frac"] for p in plans]
        ),
        "baselines.te_sim_ms": mean([te_ms(p, p.cluster) for p in plans]),
        "baselines.ring_sim_ms": mean([ring_ms(p, p.cluster) for p in plans]),
    }
    metrics.update(transport_probes(plans[-1]))
    return metrics


def refine_counts(registry) -> Dict[str, float]:
    """Refinement work per plan from a planner's metrics registry (in
    the threaded workloads concurrent plans share one counter, so these
    are exact only on the synchronous ones, which count directly)."""
    plans = max(registry.counter("planner.plans").value, 1)
    return {
        "hypergraph.gain_evals": registry.counter("planner.gain_evals").value
        / plans,
        "hypergraph.refine_moves": registry.counter(
            "planner.refine_moves"
        ).value
        / plans,
    }


# -- numerics --------------------------------------------------------------


def numeric_check(plan, label: str) -> dict:
    """Execute ``plan`` on the simulated cluster against dense attention."""
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(plan.block_set, seed=0)
    executor.load_inputs(inputs)
    exec_s = executor.run()
    outputs = executor.gather_outputs()
    reference = reference_batch_outputs(plan.block_set, inputs)
    max_abs_err = max(
        float(np.abs(out - ref).max()) for out, ref in zip(outputs, reference)
    )
    ok = len(outputs) == len(reference) and all(
        np.allclose(out, ref, rtol=RTOL, atol=ATOL)
        for out, ref in zip(outputs, reference)
    )
    return {
        "exec_s": exec_s,
        "max_abs_err": max_abs_err,
        "failure": None
        if ok
        else f"{label}: executor output off the reference by {max_abs_err:.3g}",
    }


def numeric_checks(outcome: Outcome, plans: Sequence, label: str) -> None:
    """Run the numeric check on each of ``plans``."""
    results = [
        numeric_check(plan, f"{label}[{index}]")
        for index, plan in enumerate(plans)
    ]
    for result in results:
        outcome.record(result["failure"])
    outcome.detail["numeric"] = results
    outcome.detail["runtime.exec_s"] = mean_of(results, "exec_s")
    outcome.detail["runtime.max_abs_err"] = max(
        r["max_abs_err"] for r in results
    )


def reduced_plans(scale, specs: Sequence) -> List:
    """Plan ``specs`` (already at the reduced geometry) for execution."""
    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    return [planner.plan_batch(spec) for spec in specs]


# -- one-plan probes of the store and the shm ring -------------------------


def store_roundtrip_ms(blob: bytes) -> Dict[str, float]:
    """One encoded plan through ``ShardedPlanStore`` put and get."""
    store = ShardedPlanStore(shards=4, replication=2)
    puts, gets = [], []
    try:
        for index in range(PROBE_REPEATS):
            key = f"probe/{index}"
            start = time.perf_counter()
            store.put(key, blob)
            mid = time.perf_counter()
            if store.get(key, timeout=5.0) != blob:
                raise RuntimeError("store returned different bytes")
            gets.append(time.perf_counter() - mid)
            puts.append(mid - start)
    finally:
        store.close()
    return {
        "put_ms": 1e3 * statistics.median(puts),
        "get_ms": 1e3 * statistics.median(gets),
    }


def ring_roundtrip_s(blob: bytes) -> float:
    """One encoded plan through ``PlanRing`` write + read (0 without shm)."""
    try:
        ring = PlanRing.create(slots=2, slot_bytes=len(blob))
    except ShmUnavailable:
        return 0.0
    times = []
    with ring:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            slot = ring.reserve()
            ring.write(slot, blob)
            view = ring.read(slot)
            same = view == blob
            view.release()
            ring.free(slot)
            times.append(time.perf_counter() - start)
            if not same:
                raise RuntimeError("ring returned different bytes")
    return statistics.median(times)


def transport_probes(plan) -> Dict[str, float]:
    blob = encode_plan(plan).to_bytes()
    store = store_roundtrip_ms(blob)
    return {
        "service.store_put_ms": store["put_ms"],
        "service.store_get_ms": store["get_ms"],
        "pipeline.ring_roundtrip_s": ring_roundtrip_s(blob),
    }


# -- the price of the obs tracer -------------------------------------------


def trace_overhead(planner, specs: Sequence) -> dict:
    """Synchronous ``plan_batch`` with the obs tracer on vs off."""
    tracer = get_tracer()

    def timed() -> float:
        start = time.perf_counter()
        for spec in specs:
            planner.plan_batch(spec)
        return time.perf_counter() - start

    timed()  # warm the planner, so the two passes differ only by the tracer
    untraced = timed()
    enable_tracing()
    try:
        traced = timed()
    finally:
        disable_tracing()
        tracer.clear()
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_frac": traced / untraced - 1.0,
    }
