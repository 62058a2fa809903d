"""Property-based tests (hypothesis) on core data structures."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergraph_reference import from_pins
from mask_oracles import mask_workload_matrix
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.data import pack_batches
from repro.hypergraph import BalanceConstraint, partition_hypergraph
from repro.masks import (
    CausalBlockwiseMask,
    CausalMask,
    LambdaMask,
    SharedQuestionMask,
    block_bounds,
)
from repro.placement import PlacementConfig
from repro.runtime import empty_partial, finalize, merge_partials, tile_attention
from repro.scheduling import BufferManager

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")


# -- mask strategies ---------------------------------------------------------

def mask_strategy():
    return st.one_of(
        st.just(CausalMask()),
        st.builds(
            LambdaMask,
            sink=st.integers(0, 20),
            window=st.integers(1, 40),
        ),
        st.builds(
            CausalBlockwiseMask,
            block=st.integers(1, 16),
            window_blocks=st.integers(1, 4),
            sink_blocks=st.integers(0, 3),
        ),
        st.builds(
            SharedQuestionMask,
            num_answers=st.integers(1, 4),
            answer_fraction=st.floats(0.05, 0.2),
        ),
    )


@given(mask=mask_strategy(), seqlen=st.integers(1, 120))
def test_mask_ranges_always_valid(mask, seqlen):
    ranges = mask.ranges(seqlen)  # AttendRanges validates on construction
    assert ranges.seqlen == seqlen


@given(mask=mask_strategy(), seqlen=st.integers(1, 120))
def test_mask_self_attention_and_causality(mask, seqlen):
    dense = mask.dense(seqlen)
    assert np.all(np.diag(dense))
    assert not np.any(np.triu(dense, k=1))


@given(
    mask=mask_strategy(),
    seqlen=st.integers(1, 100),
    block=st.integers(1, 32),
)
def test_workload_matrix_equals_dense_counts(mask, seqlen, block):
    workload = mask_workload_matrix(mask, seqlen, block)
    dense = mask.dense(seqlen)
    bounds = block_bounds(seqlen, block)
    assert workload.sum() == dense.sum()
    qi = len(bounds) - 2
    expected = dense[bounds[qi]:bounds[qi + 1], :block].sum()
    assert workload[qi, 0] == expected


# -- online-softmax merge ------------------------------------------------------

@given(
    seed=st.integers(0, 10_000),
    splits=st.lists(st.integers(1, 12), min_size=1, max_size=5),
)
def test_merge_partials_split_invariance(seed, splits):
    """Splitting KV arbitrarily and merging must equal one-shot attention."""
    rng = np.random.default_rng(seed)
    total = sum(splits)
    heads, rows, dim = 2, 5, 4
    q = rng.standard_normal((heads, rows, dim)).astype(np.float32)
    k = rng.standard_normal((total, dim)).astype(np.float32)
    v = rng.standard_normal((total, dim)).astype(np.float32)
    mask = rng.random((rows, total)) < 0.7
    mask[:, 0] = True  # keep at least one key per row

    whole = finalize(tile_attention(q, k, v, mask, 0.5))
    state = empty_partial(heads, rows, dim)
    offset = 0
    order = list(range(len(splits)))
    rng.shuffle(order)
    chunks = []
    for size in splits:
        chunks.append((offset, offset + size))
        offset += size
    for index in order:
        lo, hi = chunks[index]
        merge_partials(
            state, tile_attention(q, k[lo:hi], v[lo:hi], mask[:, lo:hi], 0.5)
        )
    np.testing.assert_allclose(finalize(state), whole, rtol=2e-4, atol=2e-5)


# -- hypergraph partitioning ---------------------------------------------------

@given(
    seed=st.integers(0, 1000),
    n=st.integers(6, 40),
    k=st.integers(2, 4),
)
@settings(max_examples=25)
def test_partition_labels_complete_and_in_range(seed, n, k):
    rng = np.random.default_rng(seed)
    weights = np.stack(
        [rng.integers(1, 5, n), rng.integers(1, 5, n)], axis=1
    )
    num_edges = max(n // 2, 1)
    pins = [
        rng.choice(n, size=min(int(rng.integers(2, 5)), n), replace=False)
        for _ in range(num_edges)
    ]
    graph = from_pins(weights, pins, rng.integers(1, 10, num_edges))
    result = partition_hypergraph(
        graph, k, BalanceConstraint((0.3, 0.3)), seed=seed, restarts=1
    )
    assert len(result.labels) == n
    assert result.labels.min() >= 0 and result.labels.max() < k
    assert result.part_weights.sum() == weights.sum()
    recomputed = graph.connectivity_cost(result.labels, k)
    assert recomputed == result.cost


# -- batching -------------------------------------------------------------------

@given(
    lengths=st.lists(st.integers(1, 4000), min_size=1, max_size=60),
    budget=st.integers(100, 8000),
)
def test_pack_batches_invariants(lengths, budget):
    batches = pack_batches(lengths, token_budget=budget)
    flat = [n for batch in batches for n in batch]
    assert len(flat) == len(lengths)
    for original, packed in zip(lengths, flat):
        assert packed == min(original, budget)
    for batch in batches:
        assert sum(batch) <= budget


# -- buffer manager (model-based) ------------------------------------------------

@given(
    ops=st.lists(st.integers(0, 2), min_size=1, max_size=200),
)
def test_buffer_manager_slots_unique_while_live(ops):
    manager = BufferManager()
    live = set()
    for op in ops:
        if op < 2 or not live:  # alloc twice as often as free
            slot = manager.alloc("q")
            assert slot not in live
            live.add(slot)
        else:
            slot = live.pop()
            manager.free("q", slot)
    assert len(manager._live.get("q", ())) == len(live)
    assert manager.sizes().get("q", 0) >= len(live)


# -- block generation -------------------------------------------------------------

@given(
    seqlens=st.lists(st.integers(1, 80), min_size=1, max_size=5),
    block=st.integers(1, 32),
)
@settings(max_examples=30)
def test_generate_blocks_conserves_tokens_and_pairs(seqlens, block):
    batch = BatchSpec.build(seqlens, CausalMask())
    spec = AttentionSpec(num_q_heads=2, num_kv_groups=1, head_dim=8)
    blocks = generate_blocks(batch, spec, block_size=block)
    assert sum(ts.tokens for ts in blocks.token_slices) == sum(seqlens)
    expected_pairs = sum(n * (n + 1) // 2 for n in seqlens)
    assert blocks.total_pairs == expected_pairs * spec.head_groups


# -- streaming overlap pipeline ---------------------------------------------------

def _pipeline_planner(machines=1, devices_per_machine=2):
    from repro import ClusterSpec
    from repro.core import DCPConfig, DCPPlanner

    cluster = ClusterSpec(num_machines=machines,
                          devices_per_machine=devices_per_machine)
    attention = AttentionSpec(num_q_heads=2, num_kv_groups=1, head_dim=8)
    return DCPPlanner(
        cluster, attention, DCPConfig(block_size=16,
                                      placement=PlacementConfig(restarts=1))
    )


class _DelayedPlanner:
    """Injects a fixed delay per plan (threads share the wrapper)."""

    def __init__(self, planner, delay):
        self.planner = planner
        self.delay = delay

    def plan_batch(self, batch, **kwargs):
        if self.delay:
            import time

            time.sleep(self.delay)
        return self.planner.plan_batch(batch, **kwargs)


@given(
    seed=st.integers(0, 10_000),
    num_batches=st.integers(1, 5),
    kappa=st.integers(1, 3),
    workers=st.integers(1, 3),
    delay=st.sampled_from([0.0, 0.005, 0.02]),
)
@settings(max_examples=10, deadline=None)
def test_streaming_plans_byte_identical_to_synchronous(
    seed, num_batches, kappa, workers, delay
):
    """For random stream lengths, kappa, worker counts and injected
    planner delays, the streaming pipeline's plans are byte-identical
    (plan_fingerprint) to the synchronous path."""
    from repro.pipeline import StreamingOverlapPipeline, plan_fingerprint

    rng = np.random.default_rng(seed)
    planner = _pipeline_planner()
    batches = [
        BatchSpec.build(
            [int(n) for n in rng.integers(16, 64, rng.integers(1, 3))],
            CausalMask(),
        )
        for _ in range(num_batches)
    ]
    synchronous = [plan_fingerprint(planner.plan_batch(b)) for b in batches]
    delayed = _DelayedPlanner(planner, delay)
    pipeline = StreamingOverlapPipeline(
        (b for b in batches),  # generator: no upfront length
        delayed,
        lookahead=kappa,
        max_workers=workers,
    )
    streamed = [plan for _, plan in pipeline]
    assert len(streamed) == num_batches
    for fast, reference in zip(streamed, synchronous):
        assert plan_fingerprint(fast) == reference


@given(
    seed=st.integers(0, 10_000),
    num_batches=st.integers(1, 6),
    kappa=st.integers(1, 3),
    workers=st.integers(1, 3),
    delay=st.sampled_from([0.0, 0.01]),
    exec_s=st.sampled_from([0.0, 0.01]),
)
@settings(max_examples=10, deadline=None)
def test_overlap_stats_invariants(
    seed, num_batches, kappa, workers, delay, exec_s
):
    """OverlapStats invariants: hidden fractions live in [0, 1], the
    totals are consistent sums of the records, and stalls + execution
    intervals tile the run's (virtual) clock."""
    import pytest

    from repro.pipeline import StreamingOverlapPipeline, VirtualPlannerBackend

    rng = np.random.default_rng(seed)
    planner = _pipeline_planner()
    batches = [
        BatchSpec.build([int(rng.integers(16, 64)), 16], CausalMask())
        for _ in range(num_batches)
    ]
    backend = VirtualPlannerBackend(planner, workers, [delay] * num_batches)
    pipeline = StreamingOverlapPipeline(
        iter(batches), planner, lookahead=kappa, backend=backend
    )
    for _, _plan in pipeline:
        backend.advance(exec_s)
    stats = pipeline.stats()
    assert stats.iterations == num_batches
    assert 0.0 <= stats.hidden_fraction <= 1.0
    assert 0.0 <= stats.steady_hidden_fraction <= 1.0
    assert stats.total_plan_s >= 0.0
    assert stats.total_stall_s >= 0.0
    assert stats.stall_count <= stats.iterations
    assert stats.steady_stall_count <= max(stats.iterations - 1, 0)
    assert stats.replans == 0 and stats.cluster_events == 0
    # Records tile: each iteration contributes [requested, ready] stall
    # then [ready, next request] execution, and dispatch takes no
    # virtual time, so stalls + exec intervals cover the whole clock.
    covered = stats.total_stall_s + stats.total_exec_s
    assert covered == pytest.approx(stats.wall_s, rel=1e-12, abs=1e-15)
    # Per-record sanity: non-negative intervals, orderly timeline.
    for record in stats.records:
        assert record.plan_s >= 0.0
        assert record.exec_s >= -1e-9
        assert record.stall >= 0.0
        assert record.exec_start <= record.exec_end + 1e-9


def _total(values):
    """Left fold of ``+`` from 0.0: the order the pipeline adds in."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


@given(
    seed=st.integers(0, 10_000),
    num_batches=st.integers(1, 6),
    kappa=st.integers(1, 3),
    delay=st.sampled_from([0.0, 0.005]),
    exec_s=st.sampled_from([0.0, 0.005]),
    cached=st.booleans(),
    event=st.tuples(st.integers(0, 5), st.sampled_from(["add", "remove"])),
)
@settings(max_examples=12, deadline=None)
def test_overlap_stats_are_a_fold_over_records(
    seed, num_batches, kappa, delay, exec_s, cached, event
):
    """The pipeline keeps one OverlapStats and updates it where each
    event happens; whatever the run (plan and execution delays, cache
    on or off, a cluster event), ``stats()`` — and every iteration's
    ``meta["overlap"]["running"]`` — equals a fold over the records."""
    import pytest

    from repro.core import PlanCache
    from repro.pipeline import StreamingOverlapPipeline, VirtualPlannerBackend
    from repro.pipeline.pipeline import STALL_EPS
    from repro.sim import ClusterEventSource

    rng = np.random.default_rng(seed)
    planner = _pipeline_planner(machines=2, devices_per_machine=1)
    # Two signatures, so a cached run also hits and joins.
    specs = [BatchSpec.build([n, 16], CausalMask()) for n in (32, 48)]
    batches = [specs[int(rng.integers(2))] for _ in range(num_batches)]
    events = ClusterEventSource(planner.cluster)
    backend = VirtualPlannerBackend(planner, 2, [delay] * num_batches)
    pipeline = StreamingOverlapPipeline(
        iter(batches),
        planner,
        lookahead=kappa,
        backend=backend,
        cache=PlanCache(planner) if cached else None,
        events=events,
    )
    at, kind = event
    running = []
    for index, (_, plan) in enumerate(pipeline):
        running.append(dict(plan.meta["overlap"]["running"]))
        if index == at:
            if kind == "add":
                events.add_machines(1)
            else:
                events.remove_machines(1)
        backend.advance(exec_s)
    stats = pipeline.stats()
    records = stats.records
    stalled = [record.stall > STALL_EPS for record in records]
    depths = [record.queue_depth for record in records]
    assert stats.iterations == len(records) == num_batches
    assert stats.total_plan_s == _total(r.plan_s for r in records)
    assert stats.total_exec_s == _total(r.exec_s for r in records)
    assert stats.total_stall_s == _total(r.stall for r in records)
    assert stats.stall_count == sum(stalled)
    assert stats.steady_plan_s == _total(r.plan_s for r in records[1:])
    assert stats.steady_stall_s == _total(r.stall for r in records[1:])
    assert stats.steady_stall_count == sum(stalled[1:])
    assert stats.cache_hits == sum(r.cache_hit for r in records)
    assert stats.queue_depth_max == max(depths)
    assert stats.queue_depth_mean == pytest.approx(sum(depths) / len(depths))
    assert stats.replan_plan_s == _total(
        r.plan_s for r in records if r.replanned
    )
    # One event re-dispatches or reuses each window job at most once.
    assert stats.replans == sum(r.replanned for r in records)
    assert stats.replan_jobs_reused == sum(r.reused for r in records)
    assert stats.cluster_events == int(at < num_batches - 1)
    assert stats.wall_s == records[-1].exec_end
    assert (stats.plan_cache is not None) == cached
    for seen, upto in zip(running, range(1, num_batches + 1)):
        head = records[:upto]
        assert seen["iterations"] == upto
        assert seen["total_plan_s"] == _total(r.plan_s for r in head)
        assert seen["total_stall_s"] == _total(r.stall for r in head)
        assert seen["cache_hits"] == sum(r.cache_hit for r in head)
        assert "plan_cache" not in seen


@given(
    lengths=st.lists(st.integers(0, 4000), min_size=0, max_size=60),
    budget=st.integers(100, 8000),
    cap=st.one_of(st.none(), st.integers(50, 4000)),
)
def test_stream_pack_matches_pack_batches(lengths, budget, cap):
    """The online packer is element-for-element the offline packer."""
    from repro.data import stream_pack

    streamed = list(stream_pack(iter(lengths), budget, cap))
    assert streamed == pack_batches(lengths, budget, cap)
