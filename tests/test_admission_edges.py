"""Admission-control and fair-queueing edge cases (robustness PR)."""

import threading

import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.service import (
    AdmissionController,
    FairScheduler,
    PlanRejected,
    PlanService,
)


def make_planner():
    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16, restarts=1))


def batch(seqlens):
    return BatchSpec.build(list(seqlens), make_mask("causal"))


def occupancy(scheduler, tenant):
    """``(queued, inflight)`` of one tenant of a fair scheduler."""
    return (
        len(scheduler._queues.get(tenant, ())),
        scheduler._inflight.get(tenant, 0),
    )


class TestWeightEdges:
    def test_zero_and_negative_weights_rejected(self):
        scheduler = FairScheduler()
        with pytest.raises(ValueError):
            scheduler.set_weight("t", 0.0)
        with pytest.raises(ValueError):
            scheduler.set_weight("t", -1.0)
        # The rejected weight left no partial state behind.
        scheduler.submit("t", "job")
        assert scheduler.pop(timeout=1.0) == ("t", "job")

    def test_tiny_weight_tenant_still_progresses(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=64)
        )
        scheduler.set_weight("whale", 100.0)
        scheduler.set_weight("minnow", 1e-6)
        for i in range(20):
            scheduler.submit("whale", ("w", i))
        scheduler.submit("minnow", ("m", 0))
        served = [scheduler.pop(timeout=1.0)[0] for _ in range(21)]
        assert served.count("minnow") == 1  # starvation-free


class TestAllTenantsShedding:
    def test_every_tenant_sheds_then_recovers(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=1,
                                          max_inflight_per_tenant=1)
        )
        tenants = [f"t{i}" for i in range(4)]
        for tenant in tenants:
            scheduler.submit(tenant, "job")
        for tenant in tenants:
            with pytest.raises(PlanRejected) as excinfo:
                scheduler.submit(tenant, "overflow")
            assert excinfo.value.reason == "tenant_queue_full"
        rejected = scheduler.metrics.counter("service.rejected")
        assert rejected.value == len(tenants)
        # Draining restores admission for everyone.
        for _ in tenants:
            tenant, _job = scheduler.pop(timeout=1.0)
            scheduler.task_done(tenant)
        for tenant in tenants:
            scheduler.submit(tenant, "again")
        assert scheduler._total_queued == len(tenants)

    def test_global_saturation_rejects_any_tenant(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=8,
                                          max_queued_total=2)
        )
        scheduler.submit("a", 1)
        scheduler.submit("b", 1)
        with pytest.raises(PlanRejected) as excinfo:
            scheduler.submit("c", 1)
        assert excinfo.value.reason == "service_saturated"


class TestConcurrentRejectionAccounting:
    def test_admitted_plus_rejected_equals_submitted(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=16,
                                          max_inflight_per_tenant=1)
        )
        threads = 8
        per_thread = 50
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                try:
                    scheduler.submit("shared", ("job", i))
                except PlanRejected:
                    pass

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        admitted = scheduler.metrics.counter("service.admitted").value
        rejected = scheduler.metrics.counter("service.rejected").value
        assert admitted + rejected == threads * per_thread
        assert scheduler._total_queued == admitted
        by_reason = sum(
            scheduler.metrics.counter(f"service.rejected_{reason}").value
            for reason in ("tenant_queue_full", "tenant_inflight",
                           "service_saturated")
        )
        assert by_reason == rejected
        # Every admitted job is actually drainable.
        drained = 0
        while scheduler.pop(timeout=0.1) is not None:
            drained += 1
            if drained == admitted:
                break
        assert drained == admitted


class TestTenantDiesMidDrain:
    def test_failing_tenant_jobs_do_not_stall_others(self):
        class SelectivePlanner:
            """Planner that fails every batch with one sequence."""

            def __init__(self):
                self.planner = make_planner()
                self.cluster = self.planner.cluster
                self.attention = self.planner.attention
                self.config = self.planner.config

            def plan_batch(self, spec):
                if len(spec.sequences) == 1:
                    raise RuntimeError("tenant's batches are poison")
                return self.planner.plan_batch(spec)

        with PlanService(SelectivePlanner(), workers=1) as service:
            # The dying tenant queues several failing jobs...
            for length in (16, 32, 48):
                with pytest.raises(RuntimeError, match="poison"):
                    service.fetch_plan("dying", batch([length]),
                                       timeout=30.0)
            # ...yet the single shared worker survives every one of
            # them and the healthy tenant is served normally.
            plan = service.fetch_plan("healthy", batch([64, 48]),
                                      timeout=30.0)
            assert plan is not None
            stats = service.stats()
            assert stats["worker_job_errors"] == 3
            # In-flight accounting drained: nothing stuck against the
            # dying tenant's caps.
            assert occupancy(service.scheduler, "dying") \
                == (0, 0)
            service.fetch_plan("dying", batch([64, 32]), timeout=30.0)

    def test_task_done_on_unknown_tenant_is_harmless(self):
        scheduler = FairScheduler()
        scheduler.task_done("ghost")  # never submitted anything
        scheduler.submit("t", "job")
        assert scheduler.pop(timeout=1.0) == ("t", "job")
        scheduler.task_done("t")
        scheduler.task_done("t")  # double-done must not go negative
        assert occupancy(scheduler, "t") == (0, 0)
