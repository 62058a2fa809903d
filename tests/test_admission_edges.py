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
from repro.placement import PlacementConfig
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
                      DCPConfig(block_size=16,
                                placement=PlacementConfig(restarts=1)))


def batch(seqlens):
    return BatchSpec.build(list(seqlens), make_mask("causal"))


def occupancy(scheduler, tenant):
    """``(queued, inflight)`` of one tenant of a fair scheduler."""
    return (
        len(scheduler._queues.get(tenant, ())),
        scheduler._inflight.get(tenant, 0),
    )


class TestRoundRobinEdges:
    def test_burst_delays_a_late_job_by_at_most_one_turn(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=64)
        )
        for i in range(20):
            scheduler.submit("whale", ("w", i))
        assert scheduler.pop(timeout=1.0) == ("whale", ("w", 0))
        # The minnow arrives mid-burst, behind the whale's next turn.
        scheduler.submit("minnow", ("m", 0))
        assert scheduler.pop(timeout=1.0) == ("whale", ("w", 1))
        assert scheduler.pop(timeout=1.0) == ("minnow", ("m", 0))
        served = [scheduler.pop(timeout=1.0) for _ in range(18)]
        assert served == [("whale", ("w", i)) for i in range(2, 20)]


    def test_drained_tenant_rejoins_at_the_back(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=64)
        )
        scheduler.submit("a", ("a", 0))
        for i in range(3):
            scheduler.submit("b", ("b", i))
        assert scheduler.pop(timeout=1.0) == ("a", ("a", 0))
        # a's queue drained, so it left the round; its next job queues
        # behind b's turn rather than taking its old place.
        scheduler.submit("a", ("a", 1))
        served = [scheduler.pop(timeout=1.0) for _ in range(4)]
        assert served == [("b", ("b", 0)), ("a", ("a", 1)),
                          ("b", ("b", 1)), ("b", ("b", 2))]

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
