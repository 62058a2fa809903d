"""The never-lose guard: ``place_blocks`` attaches to every placement it
computes the static zigzag / DP-packing placements of the same blocks
that dominate it on busiest-device tokens and on bytes moved, and
``build_schedule`` returns the cheapest priced (placement, T) pair.
These tests pin that the chosen plan never prices or simulates slower
than the partitioned one, that the dominance rule is what admits a
static placement, that the choice survives every route to a plan, and
that it is not an artefact of the cost model's constants."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask, DilatedBlockMask, LambdaMask, make_mask
from repro.pipeline import plan_fingerprint
from repro.placement import (
    STATIC_HEURISTICS,
    PlacementConfig,
    build_block_hypergraph,
    place_blocks,
    static_placement,
)
from repro.scheduling import build_schedule, serialize_schedule
from repro.sim import ClusterSpec, e2e_iteration_time, simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)
BLOCK = 128
CONFIG = PlacementConfig()
SERVICE = ClusterSpec(num_machines=1, devices_per_machine=4)
CLUSTERS = {
    "1x4": SERVICE,
    "2x4": ClusterSpec(num_machines=2, devices_per_machine=4),
}


def service_batch(seed: int, mask=None) -> BatchSpec:
    """640-1408 tokens in 1-3 sequences of 128-token blocks (the
    service geometry of the ledger)."""
    rng = np.random.default_rng([seed, 0x6A])
    blocks = int(rng.integers(5, 12))
    parts = int(rng.integers(1, 4))
    cuts = sorted(rng.choice(np.arange(1, blocks), parts - 1, replace=False))
    lengths = [BLOCK * (b - a) for a, b in zip([0, *cuts], [*cuts, blocks])]
    return BatchSpec.build(lengths, mask or CausalMask())


def placed(batch, cluster, config=CONFIG):
    block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK)
    return block_set, place_blocks(block_set, cluster, config)


def partitioned_only(placement):
    return replace(placement, alternatives=[])


def simulated(plan, cluster=None) -> float:
    return sum(
        simulate_plan(plan, cluster, backward=backward).iteration_time
        for backward in (False, True)
    )


def comm_bytes(placement) -> int:
    return placement.comm_report().total_bytes


def cheapest(schedule) -> float:
    return min(schedule.division_prices.values())


def same_labels(a, b) -> bool:
    return np.array_equal(a.slice_device, b.slice_device) and np.array_equal(
        a.comp_device, b.comp_device
    )


class TestNeverLose:
    @pytest.mark.parametrize("seed", range(16))
    def test_chosen_price_is_the_cheapest_candidate(self, seed):
        block_set, placement = placed(service_batch(seed), SERVICE)
        chosen = build_schedule(block_set, placement)
        price = cheapest(chosen)
        assert price == chosen.placement_prices[chosen.placement.source]
        assert price == min(chosen.placement_prices.values())
        alone = build_schedule(block_set, partitioned_only(placement))
        assert price <= cheapest(alone)
        for static in placement.alternatives:
            assert price <= cheapest(build_schedule(block_set, static))
        # The price is the simulated time of the delivered plan.
        plan = serialize_schedule(chosen)
        assert simulated(plan) == pytest.approx(price, rel=1e-9)
        assert simulated(plan) <= (
            simulated(serialize_schedule(alone)) * (1 + 1e-9)
        )

    def test_static_placements_win_at_service_geometry(self):
        """The reason for the guard: most service partitions break their
        balance caps and price slower than zigzag or DP packing."""
        sources = [
            build_schedule(*placed(service_batch(seed), SERVICE)).placement
            .source
            for seed in range(16)
        ]
        assert sum(source != "partitioned" for source in sources) >= 8


class TestDominance:
    @pytest.mark.parametrize("geometry", sorted(CLUSTERS))
    def test_only_dominating_statics_are_admitted(self, geometry):
        cluster = CLUSTERS[geometry]
        rejected_cheaper = 0
        for seed in range(12):
            for mask in (CausalMask(), LambdaMask(sink=64, window=256)):
                block_set, placement = placed(
                    service_batch(seed, mask), cluster
                )
                bhg = build_block_hypergraph(block_set)
                admitted = {p.source for p in placement.alternatives}
                tokens = placement.tokens_per_device().max()
                nbytes = comm_bytes(placement)
                chosen = build_schedule(block_set, placement)
                for source in STATIC_HEURISTICS:
                    static = static_placement(bhg, cluster, source)
                    dominates = (
                        static.tokens_per_device().max() <= tokens
                        and comm_bytes(static) <= nbytes
                    )
                    if source in admitted:
                        assert dominates
                        continue
                    if dominates:  # only a duplicate is left out
                        assert any(
                            same_labels(static, other)
                            for other in [placement, *placement.alternatives]
                        )
                        continue
                    assert chosen.placement.source != source
                    price = cheapest(build_schedule(block_set, static))
                    rejected_cheaper += price < cheapest(chosen)
        # The rule is load-bearing: some rejected placements were faster.
        assert rejected_cheaper > 0

    @pytest.mark.parametrize("geometry", sorted(CLUSTERS))
    def test_chosen_end_to_end_iteration_no_slower(self, geometry):
        """Attention no slower and the busiest device's tokens no more:
        the whole modelled training step cannot get slower."""
        cluster = CLUSTERS[geometry]
        for seed in range(8):
            block_set, placement = placed(service_batch(seed), cluster)
            chosen = serialize_schedule(build_schedule(block_set, placement))
            alone = serialize_schedule(
                build_schedule(block_set, partitioned_only(placement))
            )
            assert e2e_iteration_time(chosen).iteration_time <= (
                e2e_iteration_time(alone).iteration_time * (1 + 1e-9)
            )
            assert chosen.total_comm_bytes() <= alone.total_comm_bytes()

    def test_comm_bytes_rule_is_what_the_plan_moves(self):
        for seed in range(6):
            block_set, placement = placed(service_batch(seed), SERVICE)
            bhg = build_block_hypergraph(block_set)
            for source in STATIC_HEURISTICS:
                static = static_placement(bhg, SERVICE, source)
                plan = serialize_schedule(build_schedule(block_set, static))
                assert plan.total_comm_bytes() == comm_bytes(static)


class TestEveryRoute:
    def planner(self, cluster=SERVICE):
        return DCPPlanner(cluster, ATTENTION, DCPConfig(block_size=BLOCK))

    def zigzag_batch(self):
        for seed in range(32):
            batch = service_batch(seed)
            schedule = build_schedule(*placed(batch, SERVICE))
            if schedule.placement.source == "zigzag":
                return batch
        raise AssertionError("no batch where zigzag wins")

    def test_adopted_warm_placement_carries_no_alternatives(self):
        batch = self.zigzag_batch()
        plan = self.planner().plan_batch(batch)
        block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK)
        adopted = place_blocks(
            block_set, SERVICE, CONFIG, warm=plan.meta["placement"]
        )
        assert adopted.alternatives == []
        assert adopted.source == "zigzag"
        # Bare labels (no source) adopt as a partitioned placement.
        bare = place_blocks(
            block_set, SERVICE, CONFIG, warm=plan.meta["placement"][:2]
        )
        assert bare.alternatives == []
        assert bare.source == "partitioned"

    def test_repaired_warm_placement_carries_alternatives(self):
        """A warm start stranded on a lost machine is repaired and
        refined, and the result is weighed against the statics too."""
        batch = self.zigzag_batch()
        block_set, on_grown = placed(batch, replace(SERVICE, num_machines=2))
        assert on_grown.slice_device.max() >= 4  # some labels are stranded
        repaired = place_blocks(
            block_set,
            SERVICE,
            CONFIG,
            warm=(on_grown.slice_device, on_grown.comp_device),
        )
        assert [p.source for p in repaired.alternatives] == ["zigzag"]

    def test_decomposed_path_equals_plan_batch_where_zigzag_wins(self):
        batch = self.zigzag_batch()
        planner = self.planner()
        plan = planner.plan_batch(batch)
        assert plan.meta["placement_source"] == "zigzag"
        block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK)
        placement = place_blocks(
            block_set, SERVICE, planner.config.placement_config()
        )
        schedule = build_schedule(
            block_set,
            placement,
            num_divisions=planner.config.num_divisions,
            strategy=planner.config.scheduler,
        )
        assert plan_fingerprint(serialize_schedule(schedule)) == (
            plan_fingerprint(plan)
        )

    def test_delta_replan_adopts_the_winner_byte_for_byte(self):
        batch = self.zigzag_batch()
        planner = self.planner()
        plan = planner.plan_batch(batch)
        again = planner.plan_batch(batch, warm=plan.meta["placement"])
        assert plan_fingerprint(again) == plan_fingerprint(plan)
        # The adopted placement keeps the source it was chosen under.
        assert again.meta["placement_source"] == "zigzag"
        assert again.meta["placement"][2] == "zigzag"
        assert planner.metrics.counter(
            "planner.placement_source.zigzag"
        ).value == 2
        assert planner.metrics.counter(
            "planner.placement_source.partitioned"
        ).value == 0

    def test_choice_is_observable(self):
        batch = self.zigzag_batch()
        planner = self.planner()
        plan = planner.plan_batch(batch)
        stats = planner.last_stats
        prices = plan.meta["placement_prices"]
        assert stats.placement_source == "zigzag"
        assert stats.as_dict()["placement_source"] == "zigzag"
        assert set(prices) >= {"partitioned", "zigzag"}
        assert prices["zigzag"] == min(prices.values())
        assert prices["zigzag"] == min(plan.meta["division_prices"].values())
        assert planner.last_placement.source == "zigzag"
        assert np.array_equal(
            planner.last_placement.slice_device, plan.meta["placement"][0]
        )
        metrics = planner.metrics
        assert metrics.counter("planner.placement_source.zigzag").value == 1
        assert metrics.counter("planner.infeasible_partitions").value == (
            stats.infeasible_partitions
        )
        assert stats.as_dict()["infeasible_partitions"] == (
            stats.infeasible_partitions
        )

    def test_infeasible_partitions_are_counted(self):
        # Five equal slices cannot spread over four devices within 8 %.
        planner = self.planner()
        planner.plan_batch(BatchSpec.build([5 * BLOCK], CausalMask()))
        assert planner.last_stats.infeasible_partitions == 1
        # One device per machine: no partition call, nothing to count.
        single = self.planner(ClusterSpec(num_machines=1, devices_per_machine=1))
        single.plan_batch(BatchSpec.build([5 * BLOCK], CausalMask()))
        assert single.last_stats.infeasible_partitions == 0


#: Four of the five ``sparse_mixed`` batches (16384 tokens of 20-38
#: sequences, block 512, 2x4; seed 0) on which DP packing wins — the
#: fifth carries per-sequence RLHF masks.  With launch overhead halved
#: the first trails its partitioned alternative by 6.4 %.
SPARSE_LAMBDA = LambdaMask(sink=512, window=2048)
SPARSE_BATCHES = [
    (
        [2068, 1293, 896, 394, 44, 566, 117, 316, 328, 295, 260, 190, 1404,
         476, 443, 682, 633, 344, 164, 714, 875, 268, 1774, 111, 876, 14,
         590],
        SPARSE_LAMBDA,
    ),
    (
        [1138, 81, 124, 351, 282, 209, 290, 1028, 15, 243, 394, 118, 777,
         1091, 402, 118, 82, 466, 206, 364, 1770, 72, 383, 802, 88, 436,
         141, 102, 61, 57, 399, 1325, 698, 945, 294, 393, 125, 305],
        DilatedBlockMask(block=512, stride=4, window=2048),
    ),
    (
        [890, 124, 906, 165, 49, 1354, 328, 2006, 193, 1042, 1161, 1838,
         386, 567, 1119, 640, 99, 320, 838, 1706],
        make_mask(
            "causal_blockwise", block=128, window_blocks=2, sink_blocks=1
        ),
    ),
    (
        [675, 309, 608, 328, 654, 258, 47, 207, 169, 94, 183, 568, 2014,
         249, 944, 438, 289, 1189, 1019, 204, 102, 618, 171, 783, 125, 649,
         510, 296, 428, 63, 548, 1324, 111],
        SPARSE_LAMBDA,
    ),
]
SENSITIVITY_GEOMETRIES = [*sorted(CLUSTERS), "sparse_2x4"]
#: The one point where the 5 % criterion is not met (see the
#: sensitivity table in ``docs/benchmarks.md``).
SENSITIVITY_MISSES = {("sparse_2x4", "kernel_overhead", 0.5)}


@functools.lru_cache(maxsize=None)
def sensitivity_plans(geometry: str):
    """(cluster, [(chosen plan, partitioned-only plan)]) at nominal
    constants."""
    if geometry == "sparse_2x4":
        cluster = CLUSTERS["2x4"]
        config = PlacementConfig(restarts=1)
        attention, block = AttentionSpec(), 512
        batches = [BatchSpec.build(*case) for case in SPARSE_BATCHES]
    else:
        cluster, config = CLUSTERS[geometry], CONFIG
        attention, block = ATTENTION, BLOCK
        batches = [service_batch(seed) for seed in range(8)]
    pairs = []
    for batch in batches:
        block_set = generate_blocks(batch, attention, block_size=block)
        placement = place_blocks(block_set, cluster, config)
        pairs.append(
            tuple(
                serialize_schedule(build_schedule(block_set, p))
                for p in (placement, partitioned_only(placement))
            )
        )
    return cluster, pairs


class TestSensitivity:
    """Plans are chosen at nominal constants; re-simulated with one
    constant halved or doubled, the chosen plan should trail the
    partitioned-only plan by at most 5 % (ROADMAP item 1).  It does at
    service geometry, 1x4 and 2x4.  At ``sparse_mixed``'s geometry it
    does not with launch overhead halved: one DP-packed plan trails by
    6.4 %, an expected failure here and a row of the sensitivity table
    in ``docs/benchmarks.md``."""

    @pytest.mark.parametrize(
        "geometry, field, factor",
        [
            pytest.param(
                geometry, field, factor,
                marks=[pytest.mark.xfail(
                    strict=True,
                    reason="the 5 % criterion is not met at this point",
                )] if (geometry, field, factor) in SENSITIVITY_MISSES else [],
            )
            for geometry in SENSITIVITY_GEOMETRIES
            for field in ("kernel_overhead", "intra_bandwidth",
                          "inter_bandwidth")
            for factor in (0.5, 2.0)
        ],
    )
    def test_chosen_never_trails_partitioned(self, geometry, field, factor):
        cluster, pairs = sensitivity_plans(geometry)
        perturbed = replace(cluster, **{field: getattr(cluster, field) * factor})
        worst = max(
            simulated(chosen, perturbed) / simulated(alone, perturbed)
            for chosen, alone in pairs
        )
        assert worst <= 1.05, f"chosen trails partitioned by {worst - 1:.1%}"

    def test_dp_packing_wins_the_sparse_batches(self):
        """DP packing keeps every sequence on one device: no bytes."""
        _, pairs = sensitivity_plans("sparse_2x4")
        for chosen, alone in pairs:
            assert chosen.total_comm_bytes() == 0 < alone.total_comm_bytes()
