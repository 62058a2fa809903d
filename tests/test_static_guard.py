"""The never-lose guard: ``place_blocks`` attaches to every placement it
computes its owner-computes projection and the static zigzag /
DP-packing placements of the same blocks, ``build_schedule`` admits
those that dominate it on busiest-device tokens and on bytes moved,
and returns the cheapest priced (placement, T) pair.  These tests pin that
the chosen plan never prices or simulates slower than the partitioned
one, that the dominance rule is what admits an alternative, that the
choice survives every route to a plan, and that it is not an artefact
of the cost model's constants."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.data import RlhfSample
from repro.masks import CausalMask, DilatedBlockMask, LambdaMask, make_mask
from repro.model.attention import attention_forward_backward
from repro.pipeline import plan_fingerprint
from repro.placement import (
    STATIC_HEURISTICS,
    Placement,
    PlacementConfig,
    build_block_hypergraph,
    place_blocks,
    static_placement,
)
from repro.runtime import BatchInputs, run_forward_backward
from repro.scheduling import build_schedule, serialize_schedule
from repro.scheduling.divisions import _Prep
from repro.scheduling.instructions import CommLaunch
from repro.sim import ClusterSpec, e2e_iteration_time, simulate_plan
from test_division_choice import perturbed

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


def causal_batch(seed: int) -> BatchSpec:
    """8192 causal tokens in 1-6 sequences (the ``causal_long``
    geometry of the ledger, planned with block 512 on 2x4)."""
    rng = np.random.default_rng([seed, 0xCA])
    parts = int(rng.integers(1, 7))
    cuts = sorted(rng.choice(np.arange(1, 8192), parts - 1, replace=False))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, 8192])]
    return BatchSpec.build(lengths, CausalMask())


def placed(batch, cluster, config=CONFIG, attention=ATTENTION, block=BLOCK):
    block_set = generate_blocks(batch, attention, block_size=block)
    return block_set, place_blocks(block_set, cluster, config)


def partitioned_only(placement):
    return replace(placement, alternatives=[])


def owner_projection(placement):
    """Every computation block moved onto its query slice's device,
    built here apart from the filter that admits it."""
    block_set = placement.block_set
    comp = block_set.comp_array
    q_slice = block_set.slice_indices(comp.seq_index, comp.q_block)
    return replace(
        placement,
        comp_device=placement.slice_device[q_slice],
        source="owner",
        alternatives=[],
    )


def simulated(plan, cluster=None) -> float:
    return sum(
        simulate_plan(plan, cluster, backward=backward).iteration_time
        for backward in (False, True)
    )


def comm_bytes(placement) -> int:
    """Bytes the placement moves, as the partitioner's objective: the
    connectivity of its labels on the block hypergraph."""
    labels = np.concatenate([placement.slice_device, placement.comp_device])
    return build_block_hypergraph(placement.block_set).graph.connectivity_cost(
        labels, placement.cluster.num_devices
    )


def admitted(schedule):
    """The sources ``build_schedule`` priced beside the placement."""
    return set(schedule.placement_prices) - {"partitioned", "refined"}


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
            if static.source in admitted(chosen):
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


def candidates(bhg, placement):
    """Every alternative the filter weighs, by source."""
    return {
        "owner": owner_projection(placement),
        **{
            source: static_placement(bhg, placement.cluster, source)
            for source in STATIC_HEURISTICS
        },
    }


class TestDominance:
    @pytest.mark.parametrize("geometry", sorted(CLUSTERS))
    def test_only_dominating_alternatives_are_admitted(self, geometry):
        cluster = CLUSTERS[geometry]
        rejected_cheaper = 0
        rejected = set()
        for seed in range(12):
            for mask in (CausalMask(), LambdaMask(sink=64, window=256)):
                block_set, placement = placed(
                    service_batch(seed, mask), cluster
                )
                bhg = build_block_hypergraph(block_set)
                tokens = placement.tokens_per_device().max()
                nbytes = comm_bytes(placement)
                chosen = build_schedule(block_set, placement)
                for source, candidate in candidates(bhg, placement).items():
                    dominates = (
                        candidate.tokens_per_device().max() <= tokens
                        and comm_bytes(candidate) <= nbytes
                    )
                    if source in admitted(chosen):
                        assert dominates
                        continue
                    if dominates:  # only a duplicate is left out
                        assert any(
                            same_labels(candidate, other)
                            for other in [placement, *placement.alternatives]
                            if other.source != source
                        )
                        continue
                    rejected.add(source)
                    assert chosen.placement.source != source
                    price = cheapest(build_schedule(block_set, candidate))
                    rejected_cheaper += price < cheapest(chosen)
        # The rule is load-bearing: some rejected placements were faster.
        assert rejected_cheaper > 0
        if geometry == "2x4":
            # Moving compute to its query can move more bytes: KV blocks
            # wanted by several queries travel to each of their devices.
            assert "owner" in rejected

    def test_no_price_search_without_an_admitted_alternative(self):
        """A computed placement whose alternatives all leave the box is
        priced as it is, even where the search would find a move."""
        cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
        alone = 0
        for seed in range(24):
            block_set, placement = placed(service_batch(seed), cluster)
            schedule = build_schedule(block_set, placement)
            if admitted(schedule):
                continue
            alone += bool(placement.alternatives)
            assert set(schedule.placement_prices) == {"partitioned"}
            assert schedule.price_moves == schedule.byte_moves == 0
        assert alone > 0

    @pytest.mark.parametrize("geometry", [*sorted(CLUSTERS), "causal_2x4"])
    def test_chosen_end_to_end_iteration_no_slower(self, geometry):
        """Attention no slower and the busiest device's tokens no more:
        the whole modelled training step cannot get slower."""
        for seed in range(8):
            if geometry == "causal_2x4":
                block_set, placement = placed(
                    causal_batch(seed), CLUSTERS["2x4"],
                    attention=AttentionSpec(), block=512,
                )
            else:
                block_set, placement = placed(
                    service_batch(seed), CLUSTERS[geometry]
                )
            chosen = serialize_schedule(build_schedule(block_set, placement))
            alone = serialize_schedule(
                build_schedule(block_set, partitioned_only(placement))
            )
            assert e2e_iteration_time(chosen).iteration_time <= (
                e2e_iteration_time(alone).iteration_time * (1 + 1e-9)
            )
            assert chosen.total_comm_bytes() <= alone.total_comm_bytes()

    @pytest.mark.parametrize("geometry", sorted(CLUSTERS))
    def test_comm_bytes_rule_is_what_the_plan_moves(self, geometry):
        for seed in range(6):
            block_set, placement = placed(
                service_batch(seed), CLUSTERS[geometry]
            )
            bhg = build_block_hypergraph(block_set)
            for candidate in [placement, *candidates(bhg, placement).values()]:
                plan = serialize_schedule(
                    build_schedule(block_set, partitioned_only(candidate))
                )
                assert plan.total_comm_bytes() == comm_bytes(candidate)
                # The counts the scheduler's box admits and searches on.
                prep = _Prep(block_set, candidate)
                assert sum(prep.total_comm) == comm_bytes(candidate)
                assert prep.inter_comm == plan.inter_machine_bytes()


class TestEveryRoute:
    def planner(self, cluster=SERVICE):
        return DCPPlanner(cluster, ATTENTION, DCPConfig(block_size=BLOCK))

    def winning_batch(self, source):
        for seed in range(32):
            batch = service_batch(seed)
            schedule = build_schedule(*placed(batch, SERVICE))
            if schedule.placement.source == source:
                return batch
        raise AssertionError(f"no batch where {source} wins")

    def test_adopted_warm_placement_carries_no_alternatives(self):
        batch = self.winning_batch("zigzag")
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
        refined, and the result is weighed against its owner-computes
        projection and the statics too."""
        batch = self.winning_batch("zigzag")
        block_set, on_grown = placed(batch, replace(SERVICE, num_machines=2))
        assert on_grown.slice_device.max() >= 4  # some labels are stranded
        repaired = place_blocks(
            block_set,
            SERVICE,
            CONFIG,
            warm=(on_grown.slice_device, on_grown.comp_device),
        )
        assert [p.source for p in repaired.alternatives] == [
            "owner", "zigzag", "dp_pack"
        ]
        assert admitted(build_schedule(block_set, repaired)) == {
            "owner", "zigzag"
        }

    @pytest.mark.parametrize("source", ["zigzag", "owner"])
    def test_decomposed_path_equals_plan_batch(self, source):
        batch = self.winning_batch(source)
        planner = self.planner()
        plan = planner.plan_batch(batch)
        assert plan.meta["placement"][2] == source
        block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK)
        placement = place_blocks(block_set, SERVICE, planner.config.placement)
        schedule = build_schedule(
            block_set,
            placement,
            num_divisions=planner.config.num_divisions,
            strategy=planner.config.scheduler,
        )
        assert plan_fingerprint(serialize_schedule(schedule)) == (
            plan_fingerprint(plan)
        )

    @pytest.mark.parametrize("source", ["zigzag", "owner"])
    def test_delta_replan_adopts_the_winner_byte_for_byte(self, source):
        batch = self.winning_batch(source)
        planner = self.planner()
        plan = planner.plan_batch(batch)
        again = planner.plan_batch(batch, warm=plan.meta["placement"])
        assert plan_fingerprint(again) == plan_fingerprint(plan)
        # The adopted placement keeps the source it was chosen under.
        assert again.meta["placement"][2] == source
        assert planner.metrics.counter(
            f"planner.placement_source.{source}"
        ).value == 2
        assert planner.metrics.counter(
            "planner.placement_source.partitioned"
        ).value == 0

    @pytest.mark.parametrize("source", ["partitioned", "zigzag", "owner"])
    def test_plan_names_its_source_once(self, source):
        """The chosen source rides in ``meta["placement"]`` (where a
        warm re-plan reads it) and in the planning stats, nowhere
        else."""
        batch = self.winning_batch(source)
        planner = self.planner()
        plan = planner.plan_batch(batch)
        assert plan.meta["placement"][2] == source
        assert plan.meta["planning_stats"].placement_source == source
        assert "placement_source" not in plan.meta

    def test_choice_is_observable(self):
        batch = self.winning_batch("zigzag")
        planner = self.planner()
        plan = planner.plan_batch(batch)
        stats = plan.meta["planning_stats"]
        prices = plan.meta["placement_prices"]
        assert stats.placement_source == "zigzag"
        assert plan.meta["placement"][2] == "zigzag"
        assert set(prices) >= {"partitioned", "zigzag"}
        assert prices["zigzag"] == min(prices.values())
        assert prices["zigzag"] == min(plan.meta["division_prices"].values())
        # The labels are the winner's: rebuilt, they hold exactly the
        # tokens each device's plan feeds its replica.
        placement = Placement(plan.block_set, plan.cluster,
                              *plan.meta["placement"][:2])
        assert placement.tokens_per_device().tolist() == [
            sum(ts.tokens for ts in plan.device_plans[d].local_slices)
            for d in range(plan.num_devices)
        ]
        metrics = planner.metrics
        assert metrics.counter("planner.placement_source.zigzag").value == 1
        assert metrics.counter("planner.infeasible_partitions").value == (
            stats.infeasible_partitions
        )
        assert stats.infeasible_partitions == (
            stats.infeasible_partitions
        )

    def test_infeasible_partitions_are_counted(self):
        # Five equal slices cannot spread over four devices within 8 %.
        planner = self.planner()
        plan = planner.plan_batch(BatchSpec.build([5 * BLOCK], CausalMask()))
        assert plan.meta["planning_stats"].infeasible_partitions == 1
        # One device per machine: no partition call, nothing to count.
        single = self.planner(ClusterSpec(num_machines=1, devices_per_machine=1))
        plan = single.plan_batch(BatchSpec.build([5 * BLOCK], CausalMask()))
        assert plan.meta["planning_stats"].infeasible_partitions == 0


def owner_won(count: int):
    """The first ``count`` service batches whose plan an owner-structured
    placement wins — the owner-computes projection, or its price-refined
    neighbour, which keeps every computation block on its query slice's
    device: ``[(block_set, schedule)]``."""
    won = []
    for seed in range(64):
        block_set, placement = placed(service_batch(seed), SERVICE)
        schedule = build_schedule(block_set, placement)
        if schedule.placement.source in ("owner", "refined"):
            won.append((block_set, schedule))
            if len(won) == count:
                return won
    raise AssertionError(f"owner-structured plans win fewer than {count} "
                         "service batches")


class TestOwnerProjection:
    def test_projection_keeps_the_slices(self):
        admitted = 0
        for seed in range(16):
            block_set, placement = placed(service_batch(seed), SERVICE)
            for alternative in placement.alternatives:
                if alternative.source != "owner":
                    continue
                admitted += 1
                np.testing.assert_array_equal(
                    alternative.slice_device, placement.slice_device
                )
                np.testing.assert_array_equal(
                    alternative.tokens_per_device(),
                    placement.tokens_per_device(),
                )
                assert same_labels(alternative, owner_projection(placement))
        assert admitted > 0

    def test_owner_won_plans_send_no_partial_outputs(self):
        for _, schedule in owner_won(6):
            plan = serialize_schedule(schedule)
            assert plan.total_comm_bytes() > 0  # KV still travels
            for device_plan in plan.device_plans.values():
                for instruction in device_plan.instructions:
                    if isinstance(instruction, CommLaunch):
                        assert all(
                            send.tag[0] != "out" for send in instruction.sends
                        )

    def test_owner_won_plan_matches_dense_attention(self):
        ((block_set, schedule),) = owner_won(1)
        inputs = BatchInputs.random(block_set, seed=21)
        rng = np.random.default_rng(22)
        grad_outputs = [
            rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
        ]
        outputs, grads, _, _ = run_forward_backward(
            schedule, inputs, grad_outputs
        )
        for seq, spec in enumerate(block_set.batch.sequences):
            out_ref, dense = attention_forward_backward(
                inputs.q[seq], inputs.k[seq], inputs.v[seq], spec.mask
            )
            np.testing.assert_allclose(outputs[seq], out_ref, rtol=2e-4,
                                       atol=2e-5)
            for grad, ref in zip(
                (grads.dq, grads.dk, grads.dv), dense(grad_outputs[seq])
            ):
                np.testing.assert_allclose(grad[seq], ref, rtol=3e-3,
                                           atol=3e-4)


#: Four of the five ``sparse_mixed`` batches (16384 tokens of 20-38
#: sequences, block 512, 2x4; seed 0) on which DP packing beats the
#: partitioned placement — the fifth carries per-sequence RLHF masks.
#: The owner-computes projection wins three of them (the first at DP
#: packing's price, with no bytes moved either).  With launch overhead
#: halved the first trailed its partitioned alternative by 6.4 % until
#: attention kernels carried the finalize epilogue.
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
def rlhf_mask(seqlen: int):
    """The shared-question mask ``sparse_mixed`` gives one sequence: a
    fifth of it the question, the rest 2-4 equal answers."""
    num_answers = 2 + seqlen % 3
    question = seqlen // 5
    base = (seqlen - question) // num_answers
    answers = [base] * (num_answers - 1)
    return RlhfSample(
        question_len=question,
        answer_lens=(*answers, seqlen - question - sum(answers)),
    ).mask()


#: The ledger's worst plans under a perturbed constant (seed 0; the
#: sensitivity table in ``docs/benchmarks.md``).  All three run on the
#: owner projection.  Service: the hot one-sequence batch of 1408 causal
#: tokens, with launch overhead halved.  ``sparse_mixed``: a
#: shared-question batch of 28 sequences, with inter-machine bandwidth
#: doubled, and a blockwise-causal batch of 10, with launch overhead
#: halved.  They trailed their partitioned-only plans by 5.5 %, 6.7 %
#: and 9.6 % while every device ended on a standalone reduction kernel;
#: with the finalize epilogue (an owner plan merges nothing) they read
#: -3.4 %, +0.3 % and +3.4 %.
SERVICE_TRAILING = [([1408], CausalMask())]
SPARSE_RLHF = [
    656, 269, 434, 167, 428, 277, 79, 234, 79, 509, 334, 1550, 149, 293,
    902, 618, 100, 780, 5634, 251, 215, 387, 78, 296, 464, 60, 188, 56,
]
SPARSE_BLOCKWISE = [6853, 128, 179, 815, 79, 858, 397, 4297, 616, 256]
SPARSE_TRAILING = [
    (SPARSE_RLHF, [rlhf_mask(n) for n in SPARSE_RLHF]),
    (
        SPARSE_BLOCKWISE,
        make_mask(
            "causal_blockwise", block=128, window_blocks=2, sink_blocks=1
        ),
    ),
]
#: The two ``sparse_mixed`` worst plans the finalize epilogue brought
#: (seed 0, dilated masks, both won by the owner projection): a batch of
#: 22 sequences trails its partitioned-only plan by 22.8 % with
#: inter-machine bandwidth doubled, one of 31 by 8.3 % with launch
#: overhead halved.
SPARSE_DILATED_MASK = DilatedBlockMask(block=512, stride=4, window=2048)
SPARSE_DILATED = [
    (
        [1019, 96, 343, 6763, 1480, 375, 69, 648, 237, 105, 187, 382, 580,
         311, 737, 361, 122, 173, 279, 258, 880, 187],
        SPARSE_DILATED_MASK,
    ),
    (
        [2278, 903, 216, 242, 275, 624, 2443, 328, 540, 342, 997, 653, 178,
         173, 1122, 1036, 238, 345, 900, 206, 239, 226, 46, 295, 82, 210,
         474, 315, 36, 129, 90],
        SPARSE_DILATED_MASK,
    ),
]
#: The two ``sparse_mixed`` worst plans one tile per Q row brought (seed
#: 0, both won by the owner projection): with launch overhead halved a
#: dilated batch of 10 sequences trails its partitioned-only plan by
#: 9.7 %, a lambda batch of 24 by 8.2 %.
SPARSE_ROWS = [
    (
        [3058, 30, 814, 2462, 364, 480, 83, 396, 181, 2820],
        SPARSE_DILATED_MASK,
    ),
    (
        [2551, 289, 81, 765, 1912, 232, 1248, 876, 687, 163, 45, 307, 153,
         155, 372, 405, 42, 144, 208, 2791, 894, 103, 244, 1464],
        LambdaMask(sink=512, window=2048),
    ),
]
SENSITIVITY_GEOMETRIES = [
    *sorted(CLUSTERS), "service_trailing", "sparse_2x4", "sparse_trailing",
    "sparse_dilated", "sparse_rows",
]
@functools.lru_cache(maxsize=None)
def sensitivity_plans(geometry: str):
    """(cluster, [(chosen plan, partitioned-only plan)]) at nominal
    constants."""
    if geometry.startswith("sparse"):
        cluster = CLUSTERS["2x4"]
        config = PlacementConfig(restarts=1)
        attention, block = AttentionSpec(), 512
        cases = {
            "sparse_2x4": SPARSE_BATCHES,
            "sparse_trailing": SPARSE_TRAILING,
            "sparse_dilated": SPARSE_DILATED,
            "sparse_rows": SPARSE_ROWS,
        }[geometry]
        batches = [BatchSpec.build(*case) for case in cases]
    elif geometry == "service_trailing":
        cluster, config = SERVICE, PlacementConfig(restarts=1)
        attention, block = ATTENTION, BLOCK
        batches = [BatchSpec.build(*case) for case in SERVICE_TRAILING]
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
    partitioned-only plan by at most 5 % (ROADMAP item 4(b)).  It does
    on service batches of seeds 0-7, 1x4 and 2x4, and at every point
    below.  The four points that missed while every device ended on a
    standalone reduction kernel passed with the finalize epilogue
    (seed 0), which moved the worst ``sparse_mixed`` plans onto two
    dilated batches (``sparse_dilated``); one tile per Q row moved the
    worst plan at halved launch overhead onto two other owner-won
    batches (``sparse_rows``).  Refining the winning placement on its
    own price turned the last two misses, strict expected failures
    until then, into passes: ``sparse_dilated`` with inter-machine
    bandwidth doubled reads -6.8 % (was +14.2 %), ``sparse_rows`` with
    launch overhead halved -8.6 % (was +9.7 %)."""

    @pytest.mark.parametrize(
        "geometry, field, factor",
        [
            (geometry, field, factor)
            for geometry in SENSITIVITY_GEOMETRIES
            for field in ("kernel_overhead", "intra_bandwidth",
                          "inter_bandwidth")
            for factor in (0.5, 2.0)
        ],
    )
    def test_chosen_never_trails_partitioned(self, geometry, field, factor,
                                             monkeypatch):
        cluster, pairs = sensitivity_plans(geometry)
        changed = perturbed(cluster, field, factor, monkeypatch)
        worst = max(
            simulated(chosen, changed) / simulated(alone, changed)
            for chosen, alone in pairs
        )
        assert worst <= 1.05, f"chosen trails partitioned by {worst - 1:.1%}"

    def test_sparse_batches_no_slower_than_dp_packing(self):
        """DP packing beats the partitioned placement on these batches;
        the chosen plan is no slower than DP packing alone and moves no
        more bytes than the partitioned placement alone."""
        cluster, pairs = sensitivity_plans("sparse_2x4")
        for chosen, alone in pairs:
            block_set = chosen.block_set
            dp_pack = serialize_schedule(
                build_schedule(
                    block_set,
                    static_placement(
                        build_block_hypergraph(block_set), cluster, "dp_pack"
                    ),
                )
            )
            assert simulated(dp_pack) < simulated(alone)
            assert simulated(chosen) <= simulated(dp_pack) * (1 + 1e-9)
            assert chosen.total_comm_bytes() <= alone.total_comm_bytes()
