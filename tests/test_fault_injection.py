"""Failure-injection tests: corrupted plans must fail loudly.

The executor and timing simulator are the correctness oracles of this
reproduction; these tests verify they *detect* broken instruction
streams (lost launches, duplicate messages, missing waits) instead of
silently producing wrong numbers — the failure modes a real
distributed attention runtime deadlocks or corrupts on.

The pipeline half of the battery injects faults *upstream* of the
plans: planner workers that raise or hang mid-plan must be
retried/respawned on both backends without deadlocking the
prefetch window, and a mid-stream device-removal event must produce a
valid re-plan rather than a stale-cache hit.
"""

import dataclasses
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from hanging_planner import HangingPlanner
from repro import AttentionSpec, BatchSpec, ClusterSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner, KVStore, PlanCache
from repro.masks import CausalMask
from repro.pipeline import (
    KVPlannerBackend,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor
from repro.runtime.fabric import Fabric
from repro.scheduling import PlanValidationError, validate_plan
from repro.sim import ClusterEventSource, simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def _plan(seqlens=(256, 64)):
    batch = BatchSpec.build(list(seqlens), CausalMask())
    block_set = generate_blocks(batch, ATTENTION, block_size=32)
    planner = DCPPlanner(
        CLUSTER, attention=ATTENTION,
        config=DCPConfig(block_size=32, placement=PlacementConfig(restarts=1)),
    )
    return planner.plan(block_set, CLUSTER)


def _first_device_with(plan, kind):
    for device, device_plan in sorted(plan.device_plans.items()):
        if any(ins.kind == kind for ins in device_plan.instructions):
            return device
    pytest.skip(f"plan has no {kind} instruction")


def _strip(plan, device, predicate):
    """Remove instructions of ``device`` matching ``predicate``."""
    device_plan = plan.device_plans[device]
    device_plan.instructions = [
        ins for ins in device_plan.instructions if not predicate(ins)
    ]


class TestExecutorDetection:
    def test_lost_send_deadlocks_executor(self):
        plan = _plan()
        sender = None
        for device, device_plan in sorted(plan.device_plans.items()):
            if any(
                ins.kind == "comm_launch" and ins.sends
                for ins in device_plan.instructions
            ):
                sender = device
                break
        if sender is None:
            pytest.skip("plan has no cross-device sends")
        # Drop the victim's sends but keep its receives: its peers wait
        # on messages that never arrive.
        device_plan = plan.device_plans[sender]
        device_plan.instructions = [
            dataclasses.replace(ins, sends=())
            if ins.kind == "comm_launch"
            else ins
            for ins in device_plan.instructions
        ]
        executor = SimExecutor(plan)
        executor.load_inputs(BatchInputs.random(plan.block_set, seed=0))
        with pytest.raises(RuntimeError, match="deadlock"):
            executor.run()

    def test_lost_send_deadlocks_timing(self):
        plan = _plan()
        sender = None
        for device, device_plan in sorted(plan.device_plans.items()):
            if any(
                ins.kind == "comm_launch" and ins.sends
                for ins in device_plan.instructions
            ):
                sender = device
                break
        if sender is None:
            pytest.skip("plan has no cross-device sends")
        device_plan = plan.device_plans[sender]
        device_plan.instructions = [
            dataclasses.replace(ins, sends=())
            if ins.kind == "comm_launch"
            else ins
            for ins in device_plan.instructions
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate_plan(plan)

    def test_unknown_buffer_kind_rejected(self):
        plan = _plan()
        # The first launch that sends, on any device (a device's first
        # launch may only receive).
        found = next(
            (
                (device_plan, index, ins)
                for device_plan in plan.device_plans.values()
                for index, ins in enumerate(device_plan.instructions)
                if ins.kind == "comm_launch" and ins.sends
            ),
            None,
        )
        if found is None:
            pytest.skip("no sends to corrupt")
        device_plan, index, ins = found
        bad = dataclasses.replace(ins.sends[0], buffer="not-a-buffer")
        device_plan.instructions[index] = dataclasses.replace(
            ins, sends=(bad,) + ins.sends[1:]
        )
        executor = SimExecutor(plan)
        executor.load_inputs(BatchInputs.random(plan.block_set, seed=0))
        with pytest.raises((ValueError, RuntimeError)):
            executor.run()


class TestValidatorDetection:
    def test_intact_plan_validates(self):
        validate_plan(_plan())

    def test_dropped_launch_caught(self):
        plan = _plan()
        device = _first_device_with(plan, "comm_launch")
        _strip(plan, device, lambda ins: ins.kind == "comm_launch")
        with pytest.raises(PlanValidationError):
            validate_plan(plan)

    def test_dropped_wait_caught(self):
        plan = _plan()
        device = None
        for d, device_plan in sorted(plan.device_plans.items()):
            if any(
                ins.kind == "comm_launch" and ins.recvs
                for ins in device_plan.instructions
            ):
                device = d
                break
        if device is None:
            pytest.skip("plan has no receives")
        _strip(plan, device, lambda ins: ins.kind == "comm_wait")
        with pytest.raises(PlanValidationError):
            validate_plan(plan)


def _pipeline_planner(cluster=CLUSTER):
    return DCPPlanner(
        cluster, attention=ATTENTION,
        config=DCPConfig(block_size=16, placement=PlacementConfig(restarts=1)),
    )


def _pipeline_batches(count=4):
    mask = CausalMask()
    return [
        BatchSpec.build([48 + 16 * (i % 3), 32], mask) for i in range(count)
    ]


class CrashingPlanner:
    """Raises for the first ``failures`` plan calls (threads share it)."""

    def __init__(self, planner, failures):
        self.planner = planner
        self.failures = failures
        self.calls = 0
        self._lock = threading.Lock()

    def plan_batch(self, batch):
        with self._lock:
            self.calls += 1
            crash = self.calls <= self.failures
        if crash:
            raise RuntimeError("injected planner crash")
        return self.planner.plan_batch(batch)


class WorkerOnlyCrashPlanner:
    """Raises on planner worker threads, plans fine on the main thread.

    Every dispatch and every respawn dies, so only the pipeline's
    inline last-resort path (which runs on the consumer's thread) can
    succeed.
    """

    def __init__(self, planner):
        self.planner = planner

    def plan_batch(self, batch):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("injected worker-thread crash")
        return self.planner.plan_batch(batch)


class TestPlannerWorkerFaults:
    """Raising/hanging planner workers must not deadlock the window."""

    def _check_all_plans(self, pipeline, batches, reference_planner):
        plans = [plan for _, plan in pipeline]
        assert len(plans) == len(batches)
        for plan, batch in zip(plans, batches):
            assert plan_fingerprint(plan) == plan_fingerprint(
                reference_planner.plan_batch(batch)
            )
        return pipeline.stats()

    def test_thread_worker_crash_retried(self):
        reference = _pipeline_planner()
        flaky = CrashingPlanner(_pipeline_planner(), failures=2)
        batches = _pipeline_batches(4)
        pipeline = StreamingOverlapPipeline(
            batches, flaky, lookahead=2, max_workers=2
        )
        stats = self._check_all_plans(pipeline, batches, reference)
        assert stats.plan_retries >= 2

    def test_thread_worker_hang_respawned(self):
        reference = _pipeline_planner()
        batches = _pipeline_batches(4)
        with HangingPlanner(_pipeline_planner(), hangs=1) as hangy:
            pipeline = StreamingOverlapPipeline(
                batches, hangy, lookahead=1, max_workers=2, plan_timeout=0.1
            )
            stats = self._check_all_plans(pipeline, batches, reference)
        assert stats.plan_retries >= 1

    def test_hang_recovery_with_saturated_pool(self):
        """A hung worker permanently owns its pool thread; respawns
        must escape the pool (dedicated threads), or one hang would
        wedge background planning for the rest of the run."""
        reference = _pipeline_planner()
        batches = _pipeline_batches(4)
        with HangingPlanner(_pipeline_planner(), hangs=1, delay=5.0) as hangy:
            pipeline = StreamingOverlapPipeline(
                batches, hangy, lookahead=1, max_workers=1, plan_timeout=0.15,
            )
            begin = time.monotonic()
            stats = self._check_all_plans(pipeline, batches, reference)
            elapsed = time.monotonic() - begin
        # One escape-thread respawn per affected item, not the
        # retry-retry-inline spiral (two per item) that re-queueing
        # into the wedged pool would produce.
        assert 1 <= stats.plan_retries <= len(batches)
        # Recovery must not serialize on the 5s hang.  Generous bound:
        # the claim is "did not wait out the hang", not a latency SLO.
        assert elapsed < 4.0

    def test_kv_worker_crash_respawned(self):
        reference = _pipeline_planner()
        flaky = CrashingPlanner(_pipeline_planner(), failures=2)
        batches = _pipeline_batches(4)
        pipeline = StreamingOverlapPipeline(
            batches, flaky, lookahead=1,
            backend=KVPlannerBackend(flaky, KVStore(), num_machines=2),
        )
        stats = self._check_all_plans(pipeline, batches, reference)
        assert stats.plan_retries >= 2

    def test_kv_worker_hang_respawned(self):
        reference = _pipeline_planner()
        batches = _pipeline_batches(3)
        with HangingPlanner(_pipeline_planner(), hangs=1) as hangy:
            backend = KVPlannerBackend(hangy, KVStore(), cores_per_machine=2)
            pipeline = StreamingOverlapPipeline(
                batches, hangy, lookahead=1, backend=backend,
                plan_timeout=0.15,
            )
            stats = self._check_all_plans(pipeline, batches, reference)
        assert stats.plan_retries >= 1

    @pytest.mark.parametrize("kind", ["thread", "kv"])
    def test_worker_crash_falls_back_inline(self, kind, monkeypatch):
        import repro.pipeline.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "MAX_PLAN_RETRIES", 1)
        reference = _pipeline_planner()
        flaky = WorkerOnlyCrashPlanner(_pipeline_planner())
        backend = (
            KVPlannerBackend(flaky, KVStore()) if kind == "kv" else None
        )
        batches = _pipeline_batches(3)
        pipeline = StreamingOverlapPipeline(
            batches, flaky, lookahead=1, max_workers=2,
            backend=backend,
        )
        stats = self._check_all_plans(pipeline, batches, reference)
        # Every batch: one dispatch + one respawn fail before inline.
        assert stats.plan_retries >= len(batches)

    @pytest.mark.parametrize("kind", ["thread", "kv"])
    def test_close_does_not_wait_out_a_hung_worker(self, kind):
        """``close()`` returns while a worker still sleeps in its plan:
        a hung worker costs the consumer ``plan_timeout``, never the
        length of the hang."""
        with HangingPlanner(_pipeline_planner(), hangs=1, delay=5.0) as hangy:
            backend = (
                KVPlannerBackend(hangy, KVStore()) if kind == "kv" else None
            )
            pipeline = StreamingOverlapPipeline(
                _pipeline_batches(3), hangy, lookahead=1, backend=backend,
                plan_timeout=0.1,
            )
            served = iter(pipeline)
            next(served)  # served by a respawn; the hang goes on
            begin = time.monotonic()
            pipeline.close()
            assert time.monotonic() - begin < 1.0
            served.close()

    def test_crash_with_cache_releases_reservation(self):
        """A failed owner must not leave waiters stuck on its signature."""
        flaky = CrashingPlanner(_pipeline_planner(), failures=1)
        cache = PlanCache(flaky, capacity=8)
        mask = CausalMask()
        batches = [BatchSpec.build([48, 32], mask) for _ in range(3)]
        pipeline = StreamingOverlapPipeline(
            batches, flaky, lookahead=2, max_workers=2, cache=cache
        )
        plans = [plan for _, plan in pipeline]
        assert len(plans) == 3
        stats = cache.stats()
        assert stats["size"] >= 1  # the retried plan landed in the cache


class TestClusterFaults:
    def test_device_removal_produces_valid_replan(self):
        """Removal mid-stream: re-plan validates, no stale-cache hit."""
        planner = _pipeline_planner()
        cache = PlanCache(planner, capacity=8)
        events = ClusterEventSource(CLUSTER)
        mask = CausalMask()
        # One signature throughout: the pre-event plan is cached, so a
        # stale-cache bug would happily serve it after the removal.
        batches = [BatchSpec.build([64, 32], mask) for _ in range(4)]
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1,
            cache=cache, events=events,
        )
        plans = []
        for i, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if i == 0:
                events.remove_machines(1)
        shrunk = ClusterSpec(num_machines=1, devices_per_machine=2)
        assert plans[0].cluster == CLUSTER
        for plan in plans[1:]:
            assert plan.cluster == shrunk
            validate_plan(plan)
        stats = pipeline.stats()
        assert stats.replans + stats.replan_jobs_reused >= 1
        # The re-planned batches execute correctly on the new shape.
        from repro.runtime import reference_batch_outputs

        plan = plans[-1]
        executor = SimExecutor(plan)
        inputs = BatchInputs.random(plan.block_set, seed=0)
        executor.load_inputs(inputs)
        executor.run()
        for out, ref in zip(
            executor.gather_outputs(),
            reference_batch_outputs(plan.block_set, inputs),
        ):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    def test_affected_replan_crash_respawned(self):
        """A delta re-plan (warm-started dispatch for an affected job)
        that crashes must be respawned like any worker failure — the
        respawn plans cold against the new shape and the stream keeps
        yielding valid plans."""

        class WarmReplanCrashPlanner:
            """Crashes the first ``failures`` warm re-plan dispatches."""

            def __init__(self, planner, failures):
                self.planner = planner
                self.failures = failures
                self.warm_calls = 0
                self._lock = threading.Lock()

            def plan_batch(self, batch, cluster=None, warm=None):
                if warm is not None:
                    with self._lock:
                        self.warm_calls += 1
                        crash = self.warm_calls <= self.failures
                    if crash:
                        raise RuntimeError("injected re-plan crash")
                if cluster is not None:
                    return self.planner.plan_batch(
                        batch, cluster=cluster, warm=warm
                    )
                return self.planner.plan_batch(batch)

        flaky = WarmReplanCrashPlanner(_pipeline_planner(), failures=1)
        events = ClusterEventSource(CLUSTER)
        batches = _pipeline_batches(5)
        pipeline = StreamingOverlapPipeline(
            iter(batches), flaky, lookahead=2, max_workers=2, events=events
        )
        shrunk = ClusterSpec(num_machines=1, devices_per_machine=2)
        plans = []
        for i, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if i == 0:
                # Let the window settle so the event classifies (and
                # warm re-dispatches) real plans deterministically.
                wait([item.future for item in pipeline._pending], timeout=10.0)
                events.remove_machines(1)
        stats = pipeline.stats()
        assert len(plans) == len(batches)
        assert flaky.warm_calls >= 1  # the injected crash actually fired
        assert stats.plan_retries >= 1
        assert stats.replans >= 1
        for plan in plans[1:]:
            assert plan.cluster == shrunk
            validate_plan(plan)


class TestFabric:
    def test_duplicate_post_rejected(self):
        fabric = Fabric(CLUSTER)
        fabric.post(0, 1, ("t",), np.zeros(1), 8)
        with pytest.raises(RuntimeError, match="duplicate"):
            fabric.post(0, 1, ("t",), np.zeros(1), 8)

    def test_collect_removes_message(self):
        fabric = Fabric(CLUSTER)
        fabric.post(0, 1, ("t",), np.zeros(1), 8)
        assert fabric.ready(0, 1, ("t",))
        assert fabric.collect(0, 1, ("t",)) is not None
        assert not fabric.ready(0, 1, ("t",))
        assert fabric.pending_count() == 0

    def test_traffic_accounting(self):
        fabric = Fabric(CLUSTER)
        fabric.post(0, 1, ("a",), np.zeros(1), 100)  # same machine
        fabric.post(0, 2, ("b",), np.zeros(1), 50)  # cross machine
        assert fabric.total_bytes == 150
        assert fabric.inter_machine_bytes == 50
