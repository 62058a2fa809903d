"""Cross-module integration tests: the full pipeline, all planners."""

import numpy as np
import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    generate_blocks,
    make_mask,
)
from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.placement import (
    PlacementConfig,
    build_block_hypergraph,
    zigzag_labels,
)
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.sim import e2e_iteration_time, simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)

SCENARIOS = [
    # (seqlens, mask, machines, devices_per_machine)
    ((128, 64, 32, 16), make_mask("causal"), 2, 2),
    ((100, 70, 25), make_mask("lambda", sink=8, window=16), 2, 2),
    ((96, 96), make_mask("shared_question", num_answers=2,
                         answer_fraction=0.3), 1, 4),
    ((160, 40, 24, 16, 8), make_mask("causal_blockwise", block=16,
                                     window_blocks=2, sink_blocks=1), 4, 1),
    ((64,), make_mask("causal"), 2, 2),  # single sequence
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: str(s[0]))
def test_all_planners_agree_with_reference(scenario):
    seqlens, mask, machines, devices = scenario
    batch = BatchSpec.build(list(seqlens), mask)
    block_set = generate_blocks(batch, ATTENTION, block_size=16)
    cluster = ClusterSpec(num_machines=machines, devices_per_machine=devices)
    inputs = BatchInputs.random(block_set, seed=1)
    references = reference_batch_outputs(block_set, inputs)

    planners = [
        RingAttentionPlanner(zigzag=False),
        RingAttentionPlanner(zigzag=True),
        TransformerEnginePlanner(),
        DCPPlanner(cluster, ATTENTION, DCPConfig(
            block_size=16, placement=PlacementConfig(restarts=1)
        )),
    ]
    for planner in planners:
        plan = (
            planner.plan(block_set)
            if isinstance(planner, DCPPlanner)
            else planner.plan(block_set, cluster)
        )
        executor = SimExecutor(plan)
        executor.load_inputs(inputs)
        executor.run()
        outputs = executor.gather_outputs()
        for out, ref in zip(outputs, references):
            np.testing.assert_allclose(
                out, ref, rtol=2e-4, atol=2e-5,
                err_msg=f"{getattr(planner, 'name', 'dcp')} diverged",
            )


def test_dcp_communicates_no_more_than_static_cp():
    """The warm-start guarantee: DCP <= zigzag static CP in volume."""
    mask = make_mask("causal")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        seqlens = rng.integers(16, 256, size=rng.integers(2, 8)).tolist()
        batch = BatchSpec.build(seqlens, mask)
        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        config = DCPConfig(
            block_size=16, placement=PlacementConfig(restarts=1, seed=seed)
        )
        planner = DCPPlanner(cluster, ATTENTION, config)
        dcp_bytes = planner.plan(block_set).total_comm_bytes()
        bhg = build_block_hypergraph(block_set)
        zz = zigzag_labels(bhg, cluster.num_devices)
        zz_bytes = bhg.graph.connectivity_cost(zz, cluster.num_devices)
        assert dcp_bytes <= zz_bytes


def test_sparse_mask_reduces_dcp_communication():
    """Fig. 19's driving effect: sparsity shrinks communication."""
    seqlens = [256, 128]
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    volumes = {}
    for name, mask in [
        ("causal", make_mask("causal")),
        ("lambda", make_mask("lambda", sink=4, window=16)),
    ]:
        batch = BatchSpec.build(seqlens, mask)
        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        planner = DCPPlanner(cluster, ATTENTION,
                             DCPConfig(block_size=16,
                                       placement=PlacementConfig(restarts=1)))
        volumes[name] = planner.plan(block_set).total_comm_bytes()
    assert volumes["lambda"] <= volumes["causal"]


def test_end_to_end_timing_pipeline():
    """Plan -> simulate -> e2e composition runs for DCP and the baseline."""
    batch = BatchSpec.build([128, 96, 64], make_mask("causal"))
    block_set = generate_blocks(batch, ATTENTION, block_size=16)
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    dcp = DCPPlanner(cluster, ATTENTION, DCPConfig(
        block_size=16, placement=PlacementConfig(restarts=1)
    ))
    for plan in (
        dcp.plan(block_set),
        TransformerEnginePlanner().plan(block_set, cluster),
    ):
        timing = simulate_plan(plan)
        assert timing.iteration_time > 0
        e2e = e2e_iteration_time(plan, cluster=cluster)
        assert e2e.iteration_time > timing.iteration_time


def test_executor_is_deterministic():
    batch = BatchSpec.build([96, 48], make_mask("causal"))
    block_set = generate_blocks(batch, ATTENTION, block_size=16)
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    planner = DCPPlanner(cluster, ATTENTION,
                         DCPConfig(block_size=16,
                                   placement=PlacementConfig(restarts=1)))
    plan = planner.plan(block_set)
    results = []
    for _ in range(2):
        executor = SimExecutor(plan)
        executor.load_inputs(BatchInputs.random(block_set, seed=5))
        executor.run()
        results.append(executor.gather_outputs())
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)
