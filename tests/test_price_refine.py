"""The price search: ``build_schedule`` refines a computed placement's
cheapest owner-structured candidate by moving and swapping whole query
slices off the device that finishes last, keeping a neighbour only when
its price strictly falls inside the partitioned placement's dominance
box; then it swaps query slices to move fewer bytes, keeping a swap
only when its bytes strictly fall and its price does not rise.  These
tests pin the refined plan's price to the simulator at every division
count, the exact byte change of every swap, the box, the never-lose
order against the unrefined choice, determinism, byte-for-byte adoption
by a warm re-plan, and the refined plan's numerics."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask, LambdaMask
from repro.model.attention import attention_forward_backward
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import plan_fingerprint
from repro.placement import (
    PlacementConfig,
    build_block_hypergraph,
    place_blocks,
    static_placement,
)
from repro.runtime import BatchInputs, reference_batch_outputs, run_forward_backward
from repro.scheduling import (
    build_schedule,
    fill_divisions,
    plan_compatible,
    rebind_plan,
    serialize_schedule,
)
from repro.scheduling import divisions
from repro.sim import ClusterSpec, simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)
BLOCK = 128
#: (cluster, token budget): two machines of four, one of four, two of two.
GEOMETRIES = {
    "2x4": (ClusterSpec(num_machines=2, devices_per_machine=4), 4096),
    "1x4": (ClusterSpec(num_machines=1, devices_per_machine=4), 2048),
    "2x2": (ClusterSpec(num_machines=2, devices_per_machine=2), 2048),
}
MASKS = {"causal": CausalMask(), "lambda": LambdaMask(sink=64, window=512)}


def seeded_batch(seed: int, budget: int, mask) -> BatchSpec:
    rng = np.random.default_rng([seed, 0x5EA])
    blocks = budget // BLOCK
    parts = int(rng.integers(1, 6))
    cuts = sorted(rng.choice(np.arange(1, blocks), parts - 1, replace=False))
    lengths = [BLOCK * (b - a) for a, b in zip([0, *cuts], [*cuts, blocks])]
    return BatchSpec.build(lengths, mask)


def placed(batch, cluster):
    block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK)
    return block_set, place_blocks(
        block_set, cluster, PlacementConfig(restarts=1)
    )


@functools.lru_cache(maxsize=None)
def planned(geometry: str, mask_name: str, seed: int):
    """(block set, placement, chosen schedule) of one seeded batch."""
    cluster, budget = GEOMETRIES[geometry]
    block_set, placement = placed(
        seeded_batch(seed, budget, MASKS[mask_name]), cluster
    )
    return block_set, placement, build_schedule(block_set, placement)


def refined_cases(geometry: str, mask_name: str):
    """The cases of seeds 0-7 whose chosen placement is the refined one."""
    return [
        case
        for case in (planned(geometry, mask_name, seed) for seed in range(8))
        if case[2].placement.source == "refined"
    ]


def moved_bytes(block_set, placement) -> int:
    """Bytes a placement moves (the same at every division count)."""
    return serialize_schedule(
        fill_divisions(block_set, placement, 1)
    ).total_comm_bytes()


def simulated(plan, cluster=None) -> float:
    return sum(
        simulate_plan(plan, cluster, backward=backward).iteration_time
        for backward in (False, True)
    )


def all_cases():
    return [
        case
        for geometry in GEOMETRIES
        for mask_name in MASKS
        for case in refined_cases(geometry, mask_name)
    ]


#: Moves the search keeps on seeds 0-7 of every geometry and mask; a
#: change of its trajectory (ranking, box, budget) changes them.
PINNED_MOVES = {
    ("2x4", "causal"): [1, 1, 3, 0, 0, 2, 0, 0],
    ("2x4", "lambda"): [2, 3, 3, 0, 3, 3, 0, 0],
    ("1x4", "causal"): [2, 1, 1, 0, 0, 1, 0, 0],
    ("1x4", "lambda"): [3, 1, 1, 3, 2, 1, 3, 3],
    ("2x2", "causal"): [3, 0, 0, 0, 1, 0, 0, 3],
    ("2x2", "lambda"): [0, 1, 0, 0, 2, 1, 0, 3],
}


#: Swaps the byte phase keeps on the same batches.
PINNED_BYTE_MOVES = {
    ("2x4", "causal"): [4, 0, 6, 0, 0, 2, 0, 0],
    ("2x4", "lambda"): [5, 4, 2, 2, 3, 2, 2, 0],
    ("1x4", "causal"): [1, 1, 0, 0, 0, 1, 0, 0],
    ("1x4", "lambda"): [0, 0, 0, 1, 1, 0, 1, 0],
    ("2x2", "causal"): [0, 0, 0, 0, 2, 0, 0, 3],
    ("2x2", "lambda"): [0, 0, 0, 0, 0, 0, 0, 3],
}


@pytest.mark.parametrize("geometry, mask_name", sorted(PINNED_MOVES))
def test_trajectory_is_pinned(geometry, mask_name):
    schedules = [planned(geometry, mask_name, seed)[2] for seed in range(8)]
    assert [s.price_moves for s in schedules] == (
        PINNED_MOVES[(geometry, mask_name)]
    )
    assert [s.byte_moves for s in schedules] == (
        PINNED_BYTE_MOVES[(geometry, mask_name)]
    )
    # A plan that kept a move is refined unless the partition beats it.
    assert len(refined_cases(geometry, mask_name)) >= 2


class TestPrice:
    def test_price_is_the_simulated_time_at_every_count(self):
        for block_set, _, chosen in all_cases():
            assert sorted(chosen.division_prices) == [1, 2, 4]
            for count, price in chosen.division_prices.items():
                plan = serialize_schedule(
                    fill_divisions(block_set, chosen.placement, count)
                )
                assert price == pytest.approx(simulated(plan), rel=1e-9)
            # The delivered plan is the cheapest count of the refined one.
            assert simulated(serialize_schedule(chosen)) == pytest.approx(
                min(chosen.division_prices.values()), rel=1e-9
            )

    def test_never_above_the_unrefined_choice(self):
        """At most every other candidate's price, and at an equal price
        fewer bytes moved."""
        for block_set, placement, chosen in all_cases():
            prices = dict(chosen.placement_prices)
            refined = prices.pop("refined")
            assert refined == min(chosen.division_prices.values())
            assert refined <= min(prices.values())
            assert chosen.price_moves + chosen.byte_moves >= 1
            nbytes = moved_bytes(block_set, chosen.placement)
            for candidate in (placement, *placement.alternatives):
                if prices.get(candidate.source) == refined:
                    assert nbytes < moved_bytes(block_set, candidate)

    def test_inside_the_dominance_box(self):
        """No more busiest-device tokens, no more bytes moved and no more
        bytes moved between machines than the partitioned placement;
        every computation block on its Q slice's device."""
        for block_set, placement, chosen in all_cases():
            refined = chosen.placement
            assert (
                refined.tokens_per_device().max()
                <= placement.tokens_per_device().max()
            )
            alone = serialize_schedule(
                build_schedule(block_set, replace(placement, alternatives=[]))
            )
            plan = serialize_schedule(chosen)
            assert plan.total_comm_bytes() <= alone.total_comm_bytes()
            assert plan.inter_machine_bytes() <= alone.inter_machine_bytes()
            comp = block_set.comp_array
            q_slice = block_set.slice_indices(comp.seq_index, comp.q_block)
            assert np.array_equal(
                refined.comp_device, refined.slice_device[q_slice]
            )
            assert refined.alternatives == []

    def test_deterministic(self):
        for block_set, placement, chosen in all_cases()[:6]:
            again = build_schedule(block_set, placement)
            assert np.array_equal(
                again.placement.slice_device, chosen.placement.slice_device
            )
            assert again.division_prices == chosen.division_prices
            assert again.placement_prices == chosen.placement_prices
            assert plan_fingerprint(serialize_schedule(again)) == (
                plan_fingerprint(serialize_schedule(chosen))
            )


class TestWhereItRuns:
    def test_not_on_a_placement_passed_alone(self):
        """A static or partitioned placement without alternatives is
        priced as it is."""
        block_set, placement, _ = refined_cases("2x4", "causal")[0]
        bhg = build_block_hypergraph(block_set)
        for alone in (
            replace(placement, alternatives=[]),
            static_placement(bhg, placement.cluster, "zigzag"),
        ):
            schedule = build_schedule(block_set, alone)
            assert schedule.placement is alone
            assert schedule.price_moves == schedule.byte_moves == 0
            assert "refined" not in schedule.placement_prices


def owner_projection(block_set, placement):
    """The owner-computes projection of ``placement``."""
    comp = block_set.comp_array
    q_slice = block_set.slice_indices(comp.seq_index, comp.q_block)
    return replace(
        placement,
        comp_device=placement.slice_device[q_slice],
        alternatives=[],
    )


def searched(monkeypatch, block_set, placement):
    """The chosen schedule and the search ``build_schedule`` ran, if it
    ran one."""
    searches = []
    run = divisions._SliceSearch.run

    def recording(search):
        searches.append(search)
        return run(search)

    monkeypatch.setattr(divisions._SliceSearch, "run", recording)
    chosen = build_schedule(block_set, placement)
    monkeypatch.undo()
    assert len(searches) <= 1
    return chosen, (searches or [None])[0]


class TestBytePhase:
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_byte_change_of_every_swap_is_exact(self, geometry):
        """The table's change equals the bytes ``_Prep`` counts on the
        swapped placement, in total and between machines."""
        cluster, budget = GEOMETRIES[geometry]
        swaps = 0
        for mask in MASKS.values():
            for seed in range(4):
                block_set, placement = placed(
                    seeded_batch(seed, budget, mask), cluster
                )
                owner = owner_projection(block_set, placement)
                prep = divisions._Prep(block_set, owner)
                search = divisions._SliceSearch(
                    divisions._Priced(prep, [1], "paper"),
                    divisions._Box(prep),
                    "paper",
                )
                labels = np.asarray(owner.slice_device, dtype=np.int64)
                a, b = search.pairs
                apart = labels[a] != labels[b]
                a, b = a[apart], b[apart]
                nbytes, inter = search.byte_change(labels, a, b)
                for x, y, change, inter_change in zip(a, b, nbytes, inter):
                    after = labels.copy()
                    after[x], after[y] = labels[y], labels[x]
                    moved = prep.moved(
                        replace(owner, slice_device=after, comp_device=after[prep.q_slice])
                    )
                    assert sum(moved.total_comm) - sum(prep.total_comm) == change
                    assert moved.inter_comm - prep.inter_comm == inter_change
                swaps += len(a)
        assert swaps > 500

    def test_kept_swaps_cut_bytes_at_no_higher_price_inside_the_box(
        self, monkeypatch
    ):
        kept = 0
        for geometry in GEOMETRIES:
            for mask_name in MASKS:
                for seed in range(8):
                    block_set, placement, _ = planned(geometry, mask_name, seed)
                    chosen, search = searched(monkeypatch, block_set, placement)
                    if search is None:
                        assert chosen.price_moves == chosen.byte_moves == 0
                        continue
                    box, start = search.box, search.start
                    states = [
                        (start.prep, *start.by_count[search.count]),
                        *search.kept,
                    ][chosen.price_moves:]
                    assert len(states) == chosen.byte_moves + 1
                    for before, after in zip(states, states[1:]):
                        prep, price = after[0], after[2]
                        assert sum(prep.total_comm) < sum(before[0].total_comm)
                        assert price <= before[2]
                        assert (
                            prep.placement.tokens_per_device().max()
                            <= box.max_tokens
                        )
                        assert sum(prep.total_comm) <= box.max_bytes
                        assert prep.inter_comm <= box.max_inter
                        kept += 1
        assert kept >= 40


def planner(cluster):
    return DCPPlanner(cluster, ATTENTION, DCPConfig(block_size=BLOCK, restarts=1))


def refined_batch(geometry="2x4"):
    cluster, budget = GEOMETRIES[geometry]
    for seed in range(8):
        batch = seeded_batch(seed, budget, CausalMask())
        plan = planner(cluster).plan_batch(batch)
        if plan.meta["placement"][2] == "refined":
            return batch
    raise AssertionError("no batch where the refined placement wins")


class TestAdoption:
    def test_warm_replan_adopts_the_refined_placement_byte_for_byte(self):
        cluster = GEOMETRIES["2x4"][0]
        batch = refined_batch()
        dcp = planner(cluster)
        plan = dcp.plan_batch(batch)
        assert dcp.last_stats.price_moves >= 1
        assert dcp.last_stats.byte_moves >= 1
        again = dcp.plan_batch(batch, warm=plan.meta["placement"])
        assert plan_fingerprint(again) == plan_fingerprint(plan)
        assert again.meta["placement"][2] == "refined"
        assert again.meta["division_prices"] == plan.meta["division_prices"]
        # An adopted placement is not searched again.
        assert dcp.last_stats.price_moves == dcp.last_stats.byte_moves == 0
        assert list(again.meta["placement_prices"]) == ["refined"]

    def test_losing_an_idle_machine_keeps_the_refined_choice(self):
        """As ``TestRebindInvariance``: on a grown cluster the adopted
        refined placement leaves the new machine idle, and rebinding
        either way reproduces the warm re-plan."""
        small = GEOMETRIES["2x4"][0]
        grown = replace(small, num_machines=3)
        batch = refined_batch()
        dcp = planner(small)
        original = dcp.plan_batch(batch)
        warm = original.meta["placement"]
        on_grown = dcp.plan_batch(batch, cluster=grown, warm=warm)
        assert on_grown.meta["division_prices"] == (
            original.meta["division_prices"]
        )
        assert plan_fingerprint(rebind_plan(original, grown)) == (
            plan_fingerprint(on_grown)
        )
        assert plan_compatible(on_grown, small)
        replanned = dcp.plan_batch(batch, cluster=small, warm=warm)
        assert plan_fingerprint(rebind_plan(on_grown, small)) == (
            plan_fingerprint(replanned)
        )


class TestObservable:
    def test_moves_counted_and_traced(self):
        cluster = GEOMETRIES["2x4"][0]
        batch = refined_batch()
        dcp = planner(cluster)
        enable_tracing()
        try:
            dcp.plan_batch(batch)
            names = [span[0] for span in get_tracer().spans()]
        finally:
            disable_tracing()
            get_tracer().clear()
        stats = dcp.last_stats
        assert stats.placement_source == "refined"
        assert stats.price_moves >= 1
        assert dcp.metrics.counter("planner.price_moves").value == (
            stats.price_moves
        )
        assert stats.byte_moves >= 1
        assert dcp.metrics.counter("planner.byte_moves").value == (
            stats.byte_moves
        )
        assert names.count("price_refine") == 1


def test_refined_plan_executes_forward_and_backward():
    block_set, _, chosen = refined_cases("2x2", "causal")[0]
    assert chosen.price_moves >= 1
    matches_dense_attention(block_set, chosen)


def test_byte_refined_plan_executes_forward_and_backward():
    block_set, _, chosen = next(
        case for case in refined_cases("2x2", "causal")
        if case[2].byte_moves >= 1
    )
    matches_dense_attention(block_set, chosen)


def matches_dense_attention(block_set, chosen):
    inputs = BatchInputs.random(block_set, seed=31)
    rng = np.random.default_rng(32)
    grad_outputs = [
        rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
    ]
    outputs, grads, _, _ = run_forward_backward(chosen, inputs, grad_outputs)
    references = reference_batch_outputs(block_set, inputs)
    for seq, spec in enumerate(block_set.batch.sequences):
        np.testing.assert_allclose(
            outputs[seq], references[seq], rtol=2e-4, atol=2e-5
        )
        _, dense = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], spec.mask
        )
        for grad, reference in zip(
            (grads.dq, grads.dk, grads.dv), dense(grad_outputs[seq])
        ):
            np.testing.assert_allclose(
                grad[seq], reference, rtol=3e-3, atol=3e-4
            )
