"""The priced division count: ``build_schedule`` tries T = 1, 2, 4, ...
up to ``num_divisions``, prices each candidate from its divisions and
returns the cheapest.  These tests pin the price to the simulator, the
choice to the simulator's own oracle, and the choice's robustness to
the cost model's constants."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import TransformerEnginePlanner
from repro.bench import BenchScale, make_batches
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import (
    AttendRanges,
    CausalMask,
    DilatedBlockMask,
    LambdaMask,
    MaskSpec,
    PackedDocumentMask,
)
from repro.pipeline import plan_fingerprint
from repro.placement import (
    STATIC_HEURISTICS,
    Placement,
    PlacementConfig,
    build_block_hypergraph,
    place_blocks,
    static_placement,
)
from repro.scheduling import (
    CommLaunch,
    build_schedule,
    fill_divisions,
    plan_compatible,
    rebind_plan,
    serialize_schedule,
)
from repro.scheduling.instructions import fuses_finalize
from repro.sim import ClusterSpec, simulate_plan
from repro.sim import cluster as hardware

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32)

#: (cluster, token budget, block size): one, two and four machines.
GEOMETRIES = {
    "1x4": (ClusterSpec(num_machines=1, devices_per_machine=4), 4096, 256),
    "2x4": (ClusterSpec(num_machines=2, devices_per_machine=4), 8192, 512),
    "4x8": (ClusterSpec(num_machines=4, devices_per_machine=8), 8192, 256),
}


def _documents(budget: int, seqlen: int) -> PackedDocumentMask:
    quarter = max(seqlen // 4, 1)
    return PackedDocumentMask(doc_lens=(quarter, quarter, quarter))


#: Mask recipes: (token budget, sequence length) -> mask.
MASKS = {
    "causal": lambda budget, seqlen: CausalMask(),
    "lambda": lambda budget, seqlen: LambdaMask(
        sink=budget // 32, window=budget // 8
    ),
    "packed_documents": _documents,
    "dilated": lambda budget, seqlen: DilatedBlockMask(
        block=budget // 32, stride=4, window=budget // 8
    ),
}


def split(total_blocks: int, parts: int, rng) -> list:
    cuts = sorted(
        rng.choice(np.arange(1, total_blocks), parts - 1, replace=False)
    )
    return [int(b - a) for a, b in zip([0, *cuts], [*cuts, total_blocks])]


def seeded_batch(seed: int, budget: int, block: int, mask="causal") -> BatchSpec:
    rng = np.random.default_rng([seed, budget])
    parts = split(budget // block, int(rng.integers(1, 5)), rng)
    seqlens = [p * block for p in parts]
    return BatchSpec.build(
        seqlens, [MASKS[mask](budget, seqlen) for seqlen in seqlens]
    )


def placed(batch, cluster, block, attention=ATTENTION):
    block_set = generate_blocks(batch, attention, block_size=block)
    placement = place_blocks(
        block_set, cluster, PlacementConfig(seed=0, restarts=1)
    )
    return block_set, placement


def simulated(schedule, cluster=None) -> float:
    """Forward + backward seconds of the serialized schedule."""
    plan = serialize_schedule(schedule)
    return sum(
        simulate_plan(plan, cluster, backward=backward).iteration_time
        for backward in (False, True)
    )


def output_sends(schedule):
    """Every partial-output send of the serialized plan, per device."""
    plan = serialize_schedule(schedule)
    return {
        device: [
            (send.tag[1], send.peer)
            for op in device_plan.instructions
            if isinstance(op, CommLaunch)
            for send in op.sends
            if send.tag[0] == "out"
        ]
        for device, device_plan in plan.device_plans.items()
    }


def same_schedule(a, b) -> bool:
    return (
        a.num_divisions == b.num_divisions
        and all(
            (x.divisions, x.fetches) == (y.divisions, y.fetches)
            for x, y in (
                (a.device_schedules[d], b.device_schedules[d])
                for d in a.device_schedules
            )
        )
        and output_sends(a) == output_sends(b)
    )


def with_source(block_set, placement, source: str):
    """``placement`` itself (``"partitioned"``), its owner-computes
    projection, or a static placement of the same blocks — alone, with
    no alternatives to choose from."""
    if source == "partitioned":
        return replace(placement, alternatives=[])
    if source == "owner":
        comp = block_set.comp_array
        q_slice = block_set.slice_indices(comp.seq_index, comp.q_block)
        return replace(
            placement,
            comp_device=placement.slice_device[q_slice],
            source="owner",
            alternatives=[],
        )
    return static_placement(
        build_block_hypergraph(block_set), placement.cluster, source
    )


class HalfMasked(MaskSpec):
    """Causal over the first half of the rows; the second half attends
    to nothing, so its output rows are fully masked."""

    name = "half_masked"

    def ranges(self, seqlen: int) -> AttendRanges:
        rows = np.arange(seqlen)
        end = np.where(rows < seqlen // 2, rows + 1, 0)
        return AttendRanges(starts=np.zeros_like(end)[None], ends=end[None])


#: One machine of two devices, one 512-token sequence in 128-token
#: slices: device 0 homes slices 0-1, device 1 slices 2-3.
PAIR = ClusterSpec(num_machines=1, devices_per_machine=2)


def hand_placed(mask, move=None):
    """Every computation block on its query slice's device, except the
    blocks of ``move = (q_block, kv_block, device)``."""
    block_set = generate_blocks(
        BatchSpec.build([512], mask), ATTENTION, block_size=128
    )
    comp = block_set.comp_array
    slice_device = np.array([0, 0, 1, 1])
    comp_device = slice_device[
        block_set.slice_indices(comp.seq_index, comp.q_block)
    ].copy()
    if move is not None:
        q_block, kv_block, device = move
        comp_device[(comp.q_block == q_block) & (comp.kv_block == kv_block)] = (
            device
        )
    return block_set, Placement(block_set, PAIR, slice_device, comp_device)


def sends_partials_receives_none():
    """Device 0 computes row 2 (homed on device 1) against KV 0: it
    ships that partial home and merges nothing itself."""
    return hand_placed(CausalMask(), move=(2, 0, 0))


def only_fully_masked_rows():
    """Device 1 homes only fully masked rows: no attention kernel."""
    return hand_placed(HalfMasked())


def assert_one_rule(plan) -> None:
    """A device ends on a ``BlockwiseReduction`` exactly when
    ``fuses_finalize`` says no (it merges partials or runs no
    attention); otherwise its last attention kernel finalizes every row
    it homes."""
    for device_plan in plan.device_plans.values():
        kernels = [i for i in device_plan.instructions if i.kind == "attention"]
        reductions = [
            i for i in device_plan.instructions if i.kind == "reduction"
        ]
        assert not any(k.finalizes for k in kernels[:-1])
        merges = sum(len(r.merges) for r in reductions)
        if not fuses_finalize(merges, bool(kernels)):
            assert not (kernels and kernels[-1].finalizes)
            assert len(reductions) == int(bool(merges or device_plan.o_slots))
        else:
            assert not reductions
            assert len(kernels[-1].finalizes) == len(device_plan.o_slots)


def cases():
    for geometry, (cluster, budget, block) in GEOMETRIES.items():
        for mask_name in MASKS:
            for seed in range(3):
                yield pytest.param(
                    cluster, block,
                    seeded_batch(seed, budget, block, mask_name),
                    id=f"{geometry}-{mask_name}-{seed}",
                )


class TestCandidates:
    @pytest.mark.parametrize(
        "limit, tried",
        [(1, [1]), (2, [1, 2]), (3, [1, 2, 3]), (4, [1, 2, 4]),
         (6, [1, 2, 4, 6]), (8, [1, 2, 4, 8])],
    )
    def test_powers_of_two_and_the_limit(self, limit, tried):
        cluster, budget, block = GEOMETRIES["2x4"]
        batch = seeded_batch(0, budget, block)
        schedule = build_schedule(*placed(batch, cluster, block), limit)
        assert sorted(schedule.division_prices) == tried
        assert schedule.num_divisions in tried

    def test_tie_goes_to_fewer_divisions(self):
        """One device communicates nothing: every T prices the same."""
        cluster = ClusterSpec(num_machines=1, devices_per_machine=1)
        batch = BatchSpec.build([1024, 512], CausalMask())
        schedule = build_schedule(*placed(batch, cluster, 256), 4)
        assert len(set(schedule.division_prices.values())) == 1
        assert schedule.num_divisions == 1

    @pytest.mark.parametrize("strategy", ["paper", "balanced"])
    def test_returns_the_fixed_count_fill_of_the_chosen_count(self, strategy):
        cluster, budget, block = GEOMETRIES["2x4"]
        for seed in range(4):
            for mask_name in MASKS:
                batch = seeded_batch(seed, budget, block, mask_name)
                block_set, placement = placed(batch, cluster, block)
                chosen = build_schedule(block_set, placement, 4, strategy)
                fixed = fill_divisions(
                    block_set, chosen.placement, chosen.num_divisions, strategy
                )
                assert same_schedule(chosen, fixed)
                assert not fixed.division_prices

    def test_fixed_count_fill_is_not_a_choice(self):
        cluster, budget, block = GEOMETRIES["2x4"]
        batch = seeded_batch(0, budget, block)
        for count in (1, 2, 3, 4, 6):
            schedule = fill_divisions(*placed(batch, cluster, block), count)
            assert schedule.num_divisions == count
            assert all(
                len(ds.divisions) == count
                for ds in schedule.device_schedules.values()
            )


class TestPriceAgainstSimulator:
    @pytest.mark.parametrize("cluster, block, batch", cases())
    def test_price_is_the_simulated_time_and_choice_the_oracle(
        self, cluster, block, batch
    ):
        """The pricer runs the simulator's engine on the streams the
        candidate *would* serialize to, so price and simulated time
        agree to rounding — the 2 % the choice could tolerate is never
        spent — and the cheapest priced candidate is the simulator's
        own pick."""
        block_set, placement = placed(batch, cluster, block)
        chosen = build_schedule(block_set, placement, 4)
        oracle = {}
        for count, price in chosen.division_prices.items():
            oracle[count] = simulated(
                fill_divisions(block_set, chosen.placement, count)
            )
            assert price == pytest.approx(oracle[count], rel=1e-9)
        best = min(oracle, key=lambda count: (oracle[count], count))
        assert oracle[chosen.num_divisions] <= oracle[best] * (1 + 1e-9)
        # Never more than 5 % behind the paper's fixed T (here: never).
        assert oracle[chosen.num_divisions] <= oracle[4] * 1.05

    @staticmethod
    def assert_priced_as_simulated(block_set, placement) -> None:
        """Each T in {1, 2, 4} prices at the simulated forward + backward
        time of the plan it serializes to, finalize epilogues included."""
        prices = build_schedule(block_set, placement, 4).division_prices
        assert sorted(prices) == [1, 2, 4]
        for count, price in prices.items():
            plan = serialize_schedule(fill_divisions(block_set, placement, count))
            assert_one_rule(plan)
            assert price == pytest.approx(
                sum(
                    simulate_plan(plan, backward=backward).iteration_time
                    for backward in (False, True)
                ),
                rel=1e-9,
            )

    @pytest.mark.parametrize("source", ["partitioned", "owner", *STATIC_HEURISTICS])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("mask_name", ["causal", "packed_documents"])
    def test_every_placement_source_prices_as_simulated(
        self, source, geometry, mask_name
    ):
        cluster, budget, block = GEOMETRIES[geometry]
        block_set, placement = placed(
            seeded_batch(0, budget, block, mask_name), cluster, block
        )
        self.assert_priced_as_simulated(
            block_set, with_source(block_set, placement, source)
        )

    def test_device_that_sends_partials_but_receives_none(self):
        block_set, placement = sends_partials_receives_none()
        self.assert_priced_as_simulated(block_set, placement)
        plan = serialize_schedule(fill_divisions(block_set, placement, 1))
        sender = plan.device_plans[0].instructions
        assert sender[-1].kind == "comm_wait"
        assert sender[-2].kind == "comm_launch" and sender[-2].sends
        assert sender[-3].kind == "attention" and sender[-3].finalizes
        assert plan.device_plans[1].instructions[-1].merges

    def test_device_with_only_fully_masked_rows_keeps_a_reduction(self):
        block_set, placement = only_fully_masked_rows()
        self.assert_priced_as_simulated(block_set, placement)
        plan = serialize_schedule(fill_divisions(block_set, placement, 1))
        idle = plan.device_plans[1]
        assert [i.kind for i in idle.instructions] == ["reduction"]
        assert len(idle.instructions[0].finalizes) == len(idle.o_slots) > 0

    def test_choice_varies_between_batches_of_one_geometry(self):
        """The candidates are not decoration: more than one count wins."""
        cluster, budget, block = GEOMETRIES["2x4"]
        winners = {
            build_schedule(
                *placed(seeded_batch(seed, budget, block),
                        cluster, block),
                4,
            ).num_divisions
            for seed in range(3)
        }
        assert len(winners) > 1

    def test_service_geometry_beats_transformer_engine(self):
        """640-1408 tokens, block 128, one machine of four: fixed T=4
        lost to TE on 98 % of these; the priced choice loses on none."""
        cluster = GEOMETRIES["1x4"][0]
        te = TransformerEnginePlanner()
        rng = np.random.default_rng(7)
        for _ in range(24):
            blocks = int(rng.integers(5, 12))
            parts = split(blocks, int(rng.integers(1, 4)), rng)
            batch = BatchSpec.build([128 * p for p in parts], CausalMask())
            block_set, placement = placed(batch, cluster, 128)
            dcp = simulated(build_schedule(block_set, placement, 4))
            te_plan = te.plan(block_set, cluster)
            te_time = sum(
                simulate_plan(te_plan, cluster, backward=b).iteration_time
                for b in (False, True)
            )
            assert dcp < te_time, parts

    def test_paper_geometry_no_slower_than_fixed_four(self):
        """131072 causal tokens, block 2048, 4x8: where the paper's
        T = 4 pays, the choice is no slower than it."""
        scale = BenchScale(
            cluster=ClusterSpec(num_machines=4, devices_per_machine=8),
            num_batches=1,
        )
        batch = make_batches("longalign", scale, CausalMask())[0]
        block_set, placement = placed(
            batch, scale.cluster, scale.block_size, scale.attention
        )
        chosen = build_schedule(block_set, placement, 4)
        fixed = fill_divisions(block_set, placement, 4)
        assert simulated(chosen) <= simulated(fixed) * (1 + 1e-9)


def perturbed(cluster, field, factor, monkeypatch):
    """*cluster* with one hardware parameter scaled by *factor*: a field
    of the cluster, or else the module constant of that name."""
    if hasattr(cluster, field):
        return replace(cluster, **{field: getattr(cluster, field) * factor})
    name = field.upper()
    monkeypatch.setattr(hardware, name, getattr(hardware, name) * factor)
    return cluster


class TestSensitivity:
    """The cost model now decides, so the decision must not be an
    artefact of its constants: planner and simulator both get the
    perturbed cluster, and the chosen plan may not trail fixed T = 4."""

    @pytest.mark.parametrize(
        "field", ["kernel_overhead", "intra_bandwidth", "inter_bandwidth"]
    )
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_chosen_never_trails_fixed_four(self, field, factor, monkeypatch):
        base, budget, block = GEOMETRIES["2x4"]
        cluster = perturbed(base, field, factor, monkeypatch)
        for mask_name in ("causal", "lambda"):
            for seed in range(3):
                batch = seeded_batch(seed, budget, block, mask_name)
                block_set, placement = placed(batch, cluster, block)
                chosen = simulated(build_schedule(block_set, placement, 4))
                fixed = simulated(fill_divisions(block_set, placement, 4))
                assert chosen <= fixed * 1.05

    def test_cheaper_launches_move_the_choice_up(self, monkeypatch):
        """Per-division launch overhead is what T = 1 saves: with free
        launches more divisions can only help overlap."""
        base, budget, block = GEOMETRIES["2x4"]
        batches = [seeded_batch(seed, budget, block) for seed in range(3)]
        with_overhead = [build_schedule(*placed(batch, base, block), 4)
                         for batch in batches]
        monkeypatch.setattr(hardware, "KERNEL_OVERHEAD", 0.0)
        for batch, chosen in zip(batches, with_overhead):
            without = build_schedule(*placed(batch, base, block), 4)
            assert without.num_divisions >= chosen.num_divisions


class TestObservable:
    def test_plan_meta_stats_and_histogram(self):
        cluster, budget, block = GEOMETRIES["2x4"]
        planner = DCPPlanner(
            cluster, ATTENTION, DCPConfig(
                block_size=block, placement=PlacementConfig(restarts=1)
            )
        )
        plan = planner.plan_batch(seeded_batch(1, budget, block))
        prices = plan.meta["division_prices"]
        chosen = plan.meta["num_divisions"]
        assert sorted(prices) == [1, 2, 4]
        assert prices[chosen] == min(prices.values())
        assert plan.meta["planning_stats"].num_divisions == chosen
        histogram = planner.metrics.snapshot()["planner.num_divisions"]
        assert histogram["count"] == 1 and histogram["max"] == chosen

    def test_limit_of_one_is_the_single_division_plan(self):
        cluster, budget, block = GEOMETRIES["2x4"]
        batch = seeded_batch(1, budget, block)
        plans = [
            DCPPlanner(
                cluster, ATTENTION,
                DCPConfig(block_size=block, num_divisions=limit,
                          placement=PlacementConfig(restarts=1)),
            ).plan_batch(batch)
            for limit in (1, 4)
        ]
        assert plans[0].meta["num_divisions"] == 1
        assert plans[1].meta["division_prices"][1] == pytest.approx(
            plans[0].meta["division_prices"][1]
        )


class TestRebindInvariance:
    """The price reads only devices that hold work, so an idle trailing
    machine joining or leaving changes no choice: a rebound plan stays
    fingerprint-identical to the warm re-plan on the new shape."""

    @pytest.mark.parametrize("seed", range(4))
    def test_losing_an_idle_machine_keeps_the_choice(self, seed):
        small, budget, block = GEOMETRIES["2x4"]
        grown = replace(small, num_machines=3)
        planner = DCPPlanner(
            small, ATTENTION, DCPConfig(block_size=block,
                                        placement=PlacementConfig(restarts=1))
        )
        batch = seeded_batch(seed, budget, block)
        original = planner.plan_batch(batch)
        warm = original.meta["placement"]
        # On the grown cluster the adopted placement leaves machine 2 idle.
        on_grown = planner.plan_batch(batch, cluster=grown, warm=warm)
        assert on_grown.meta["division_prices"] == (
            original.meta["division_prices"]
        )
        assert plan_fingerprint(rebind_plan(original, grown)) == (
            plan_fingerprint(on_grown)
        )
        assert plan_compatible(on_grown, small)
        rebound = rebind_plan(on_grown, small)
        replanned = planner.plan_batch(batch, cluster=small, warm=warm)
        assert plan_fingerprint(rebound) == plan_fingerprint(replanned)
        assert rebound.meta["num_divisions"] == (
            replanned.meta["num_divisions"]
        )
