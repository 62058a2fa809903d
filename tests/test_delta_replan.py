"""Delta re-planning on cluster events.

The contract under test: when a :class:`~repro.sim.ClusterEventSource`
reports a shape change mid-stream, the delta re-planner re-dispatches
*only* the prefetch-window jobs the event actually affects — reusing
compatible plans via :func:`~repro.scheduling.rebind_plan` and
warm-starting affected re-plans from their previous placement — and the
result is indistinguishable (``plan_fingerprint``-identical) from
re-planning the whole window through the same primitive (the
:class:`~replan_oracles.WholeWindowPipeline` oracle), under arbitrary
event timing, on the thread and the KV backend.

Also covers the building blocks: event affected-device metadata,
plan compatibility/rebind, warm-start label
repair, and the planner's warm adopt/repair paths.
"""

from concurrent.futures import wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replan_oracles import WholeWindowPipeline
from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.core import KVStore, PlanCache
from repro.hypergraph import BalanceConstraint, repair_labels
from repro.pipeline import (
    KVPlannerBackend,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
from repro.placement import PlacementConfig, build_block_hypergraph
from repro.scheduling import (
    empty_device_plan,
    plan_compatible,
    rebind_plan,
    validate_plan,
)
from repro.sim import ClusterEventSource

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
GROWN = ClusterSpec(num_machines=3, devices_per_machine=2)
SHRUNK = ClusterSpec(num_machines=1, devices_per_machine=2)
ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)


def make_planner(cluster=CLUSTER):
    return DCPPlanner(
        cluster, ATTENTION, DCPConfig(block_size=16,
                                      placement=PlacementConfig(restarts=1))
    )


def make_batches(count=4, base=48):
    mask = make_mask("causal")
    return [
        BatchSpec.build([base + 16 * (i % 3), 32], mask) for i in range(count)
    ]


def settle(pipeline, timeout=10.0):
    """Wait for every window job to finish, so event classification is
    deterministic (the racy in-flight fallback has its own tests)."""
    _done, pending = wait(
        [item.future for item in pipeline._pending], timeout=timeout
    )
    assert not pending, "prefetch window did not settle in time"


class TestEventMetadata:
    def test_removal_names_removed_devices(self):
        events = ClusterEventSource(CLUSTER)
        event = events.remove_machines(1)
        assert event.previous == CLUSTER
        assert event.cluster == SHRUNK
        assert event.affected_devices == (2, 3)

    def test_addition_names_added_devices(self):
        events = ClusterEventSource(CLUSTER)
        event = events.add_machines(1)
        assert event.previous == CLUSTER
        assert event.affected_devices == (4, 5)

    def test_devices_per_machine_change_affects_everything(self):
        events = ClusterEventSource(CLUSTER)
        event = events.resize(devices_per_machine=4)
        assert event.affected_devices == tuple(range(8))

    def test_parameter_resize_affects_no_devices(self):
        events = ClusterEventSource(CLUSTER)
        event = events.resize(inter_bandwidth=25e9)
        assert event.affected_devices == ()
        assert event.previous == CLUSTER


class TestPlanCompatibility:
    def _plan(self):
        return make_planner().plan_batch(make_batches(1)[0])

    def test_growth_is_always_compatible(self):
        plan = self._plan()
        assert plan_compatible(plan, GROWN)

    def test_rebind_grow_matches_warm_replan(self):
        """Rebind extends with idle devices, byte-identical to actually
        re-planning with the old placement adopted warm."""
        planner = make_planner()
        batch = make_batches(1)[0]
        plan = planner.plan_batch(batch)
        rebound = rebind_plan(plan, GROWN)
        assert sorted(rebound.device_plans) == list(range(6))
        assert rebound.cluster == GROWN
        replanned = planner.plan_batch(
            batch, cluster=GROWN, warm=plan.meta["placement"]
        )
        assert plan_fingerprint(rebound) == plan_fingerprint(replanned)
        validate_plan(rebound)

    def test_rebind_round_trip_restores_fingerprint(self):
        """Grow then shrink back: the trailing devices the grow added
        are idle, so the shrink is compatible and restores the original
        plan byte-for-byte."""
        plan = self._plan()
        grown = rebind_plan(plan, GROWN)
        assert plan_compatible(grown, CLUSTER)
        back = rebind_plan(grown, CLUSTER)
        assert plan_fingerprint(back) == plan_fingerprint(plan)

    def test_shrink_incompatible_when_devices_busy(self):
        plan = self._plan()
        busy = [
            device
            for device, dp in plan.device_plans.items()
            if dp.instructions or dp.local_slices
        ]
        assert any(device >= SHRUNK.num_devices for device in busy)
        assert not plan_compatible(plan, SHRUNK)
        with pytest.raises(ValueError):
            rebind_plan(plan, SHRUNK)

    def test_parameter_and_topology_changes_incompatible(self):
        plan = self._plan()
        import dataclasses

        slower = dataclasses.replace(CLUSTER, inter_bandwidth=25e9)
        assert not plan_compatible(plan, slower)
        remapped = ClusterSpec(num_machines=1, devices_per_machine=4)
        assert not plan_compatible(plan, remapped)

    def test_empty_device_plan_matches_serializer_output(self):
        """An idle device serialized by the real pipeline equals the
        synthetic one rebind grafts on."""
        planner = make_planner()
        batch = make_batches(1)[0]
        plan = planner.plan_batch(batch)
        grown_replan = planner.plan_batch(
            batch, cluster=GROWN, warm=plan.meta["placement"]
        )
        from repro.core.planwire import encode_device_payload

        for device in (4, 5):
            assert encode_device_payload(
                device, grown_replan.device_plans[device]
            ) == encode_device_payload(device, empty_device_plan(device))


class TestRepairLabels:
    def _graph(self):
        batch = make_batches(1)[0]
        from repro.blocks import generate_blocks

        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        return build_block_hypergraph(block_set).graph

    def test_in_range_labels_untouched(self):
        graph = self._graph()
        labels = np.arange(graph.num_vertices, dtype=np.int64) % 3
        caps = BalanceConstraint((0.4, 0.08)).caps(graph, 3)
        repaired = repair_labels(graph, labels, 3, caps)
        np.testing.assert_array_equal(repaired, labels)

    def test_stranded_vertices_reassigned_deterministically(self):
        graph = self._graph()
        labels = np.arange(graph.num_vertices, dtype=np.int64) % 4
        caps = BalanceConstraint((0.4, 0.08)).caps(graph, 2)
        repaired = repair_labels(graph, labels, 2, caps)
        assert repaired.min() >= 0 and repaired.max() < 2
        # Valid labels survive, stranded ones moved.
        valid = labels < 2
        np.testing.assert_array_equal(repaired[valid], labels[valid])
        again = repair_labels(graph, labels, 2, caps)
        np.testing.assert_array_equal(repaired, again)

    def test_wrong_shape_rejected(self):
        graph = self._graph()
        caps = BalanceConstraint((0.4, 0.08)).caps(graph, 2)
        with pytest.raises(ValueError):
            repair_labels(graph, np.zeros(3, dtype=np.int64), 2, caps)


class TestWarmPlanning:
    def test_warm_adopt_reproduces_plan(self):
        planner = make_planner()
        batch = make_batches(1)[0]
        plan = planner.plan_batch(batch)
        again = planner.plan_batch(
            batch, cluster=CLUSTER, warm=plan.meta["placement"]
        )
        assert plan_fingerprint(plan) == plan_fingerprint(again)

    def test_warm_shrink_repairs_and_is_deterministic(self):
        planner = make_planner()
        batch = make_batches(1)[0]
        warm = planner.plan_batch(batch).meta["placement"]
        first = planner.plan_batch(batch, cluster=SHRUNK, warm=warm)
        second = planner.plan_batch(batch, cluster=SHRUNK, warm=warm)
        validate_plan(first)
        assert first.cluster == SHRUNK
        assert plan_fingerprint(first) == plan_fingerprint(second)

    def test_mismatched_warm_labels_fall_back_cold(self):
        """Labels from a different block decomposition are useless as a
        warm start and must be ignored, not crash the planner."""
        planner = make_planner()
        batch = make_batches(1)[0]
        cold = planner.plan_batch(batch)
        bogus = (
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        plan = planner.plan_batch(batch, warm=bogus)
        assert plan_fingerprint(plan) == plan_fingerprint(cold)


class TestDeltaPipeline:
    def _run(self, pipeline_class, schedule, batches, kappa=2, workers=2,
             cache=None):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        pipeline = pipeline_class(
            iter(batches),
            planner,
            lookahead=kappa,
            max_workers=workers,
            events=events,
            cache=cache,
        )
        machines = CLUSTER.num_machines
        plans = []
        for index, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            for at, kind in schedule:
                if at != index:
                    continue
                settle(pipeline)
                if kind == "remove" and machines > 1:
                    events.remove_machines(1)
                    machines -= 1
                elif kind == "add":
                    events.add_machines(1)
                    machines += 1
        return plans, pipeline.stats()

    def test_addition_reuses_the_whole_window(self):
        batches = make_batches(5)
        plans, stats = self._run(
            StreamingOverlapPipeline, [(1, "add")], batches
        )
        assert stats.replans == 0
        assert stats.replan_jobs_reused >= 1
        for plan in plans[2:]:
            assert plan.cluster.num_machines == 3
        assert any(r.reused for r in stats.records)

    def test_removal_replans_only_affected_jobs_warm(self):
        batches = make_batches(5)
        plans, stats = self._run(
            StreamingOverlapPipeline, [(1, "remove")], batches
        )
        # The settled window (jobs 2-4) splits into re-plans and reuses.
        assert stats.replans + stats.replan_jobs_reused == 3
        for record in stats.records[2:]:
            assert record.replanned != record.reused
        for plan in plans[2:]:
            assert plan.cluster.num_machines == 1
            validate_plan(plan)

    def test_delta_equals_window_on_removal(self):
        batches = make_batches(5)
        delta, ds = self._run(
            StreamingOverlapPipeline, [(1, "remove")], batches
        )
        window, ws = self._run(WholeWindowPipeline, [(1, "remove")], batches)
        assert [plan_fingerprint(p) for p in delta] == [
            plan_fingerprint(p) for p in window
        ]
        assert ds.replans <= ws.replans

    def test_delta_equals_window_on_addition(self):
        batches = make_batches(5)
        delta, _ = self._run(StreamingOverlapPipeline, [(1, "add")], batches)
        window, _ = self._run(WholeWindowPipeline, [(1, "add")], batches)
        assert [plan_fingerprint(p) for p in delta] == [
            plan_fingerprint(p) for p in window
        ]

    def test_compatible_cache_entries_survive_the_event(self):
        """Recurring signatures keep hitting after an add: the stale
        shape's entries are remapped onto the new shape, not dropped."""
        planner = make_planner()
        cache = PlanCache(planner, capacity=16)
        mask = make_mask("causal")
        batches = [BatchSpec.build([48, 32], mask) for _ in range(6)]
        plans, stats = self._run(
            StreamingOverlapPipeline, [(1, "add")], batches, kappa=1,
            workers=1, cache=cache,
        )
        assert len(plans) == 6
        assert cache.stats()["remapped"] >= 1
        assert stats.replans == 0  # nothing affected by an add
        # Post-event repeats of the same signature hit the remapped
        # entries instead of re-planning.
        assert stats.cache_hits >= 1

    def test_device_map_change_replans_cold(self):
        """A devices_per_machine resize remaps every device, so the old
        placement labels are meaningless as a warm start: the re-plan
        must be cold — byte-identical to a fresh planner on the new
        topology — not a verbatim adoption of the stale layout."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        pipeline = StreamingOverlapPipeline(
            iter(batches),
            planner,
            lookahead=1,
            max_workers=1,
            events=events,
        )
        remapped = ClusterSpec(num_machines=1, devices_per_machine=4)
        plans = []
        for index, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if index == 0:
                settle(pipeline)
                events.resize(num_machines=1, devices_per_machine=4)
        stats = pipeline.stats()
        assert stats.replans >= 1  # nothing reusable across a remap
        assert stats.replan_jobs_reused == 0
        fresh = make_planner(cluster=remapped)
        for plan, batch in zip(plans[1:], batches[1:]):
            assert plan.cluster == remapped
            assert plan_fingerprint(plan) == plan_fingerprint(
                fresh.plan_batch(batch)
            )

    def test_delta_on_kv_backend(self):
        """A link degradation re-plans the settled window warm; the
        streams come out byte-identical, so the KV route rewrites no
        device entry and the consumers' cursor re-pull moves only the
        skeleton."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        backend = KVPlannerBackend(planner, KVStore(), num_machines=2)
        pipeline = StreamingOverlapPipeline(
            iter(make_batches(4)),
            planner,
            lookahead=1,
            backend=backend,
            events=events,
        )
        plans = []
        for index, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if index == 0:
                settle(pipeline)
                events.resize(inter_bandwidth=CLUSTER.inter_bandwidth / 2)
        replans = pipeline.stats().replans
        assert replans >= 1
        assert plans[1].cluster.inter_bandwidth == CLUSTER.inter_bandwidth / 2
        counters = backend.metrics.snapshot()
        # Every iteration's first publication wrote all its streams;
        # the re-plans' republications wrote none.
        assert counters["pool.device_entries_written"]["value"] == sum(
            plan.num_devices for plan in plans
        )
        assert counters["pool.device_entries_unchanged"]["value"] == (
            replans * CLUSTER.num_devices
        )
        assert counters["pool.refetch_saved_bytes"]["value"] > 0
        for plan in plans:
            validate_plan(plan)


def planner_backend(name, planner, workers):
    """A planner backend by name: the pipeline's own thread pool
    (``None``), or the KV route, whose resubmit supersedes the job it
    replaces."""
    if name == "thread":
        return None
    return KVPlannerBackend(
        planner, KVStore(), num_machines=2, cores_per_machine=workers
    )


@pytest.mark.parametrize("backend", ["thread", "kv"])
@given(
    seed=st.integers(0, 10_000),
    num_batches=st.integers(2, 5),
    kappa=st.integers(1, 2),
    workers=st.integers(1, 2),
    schedule=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(["add", "remove"])),
        min_size=1,
        max_size=2,
    ),
)
@settings(max_examples=8, deadline=None)
def test_delta_replan_fingerprint_identical_to_window_replan(
    backend, seed, num_batches, kappa, workers, schedule
):
    """Under random streams and random event timing/kinds, the delta
    re-planner's yielded plans are byte-identical to brute-force
    re-planning the whole window — the reuse shortcut never changes
    what the pipeline produces, on either backend."""
    rng = np.random.default_rng(seed)
    mask = make_mask("causal")
    batches = [
        BatchSpec.build(
            [int(n) for n in rng.integers(24, 72, rng.integers(1, 3))], mask
        )
        for _ in range(num_batches)
    ]

    def run(pipeline_class):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        pipeline = pipeline_class(
            (b for b in batches),
            planner,
            lookahead=kappa,
            max_workers=workers,
            backend=planner_backend(backend, planner, workers),
            events=events,
        )
        machines = CLUSTER.num_machines
        prints = []
        for index, (_, plan) in enumerate(pipeline):
            prints.append(plan_fingerprint(plan))
            for at, kind in schedule:
                if at != index:
                    continue
                settle(pipeline)
                if kind == "remove" and machines > 1:
                    events.remove_machines(1)
                    machines -= 1
                elif kind == "add":
                    events.add_machines(1)
                    machines += 1
        return prints

    assert run(StreamingOverlapPipeline) == run(WholeWindowPipeline)
