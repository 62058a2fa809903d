"""Randomized cross-system equivalence: every planner, same numbers.

The repository's central invariant: whatever the planner (DCP with
either scheduler, ring, zigzag, TE), whatever the mask
and sequence mix, the executed plan reproduces dense masked attention.
Hypothesis drives the batch shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.sim import ClusterSpec

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=8)
CLUSTER = ClusterSpec(num_machines=1, devices_per_machine=2)

batch_strategy = st.lists(
    st.integers(min_value=8, max_value=160), min_size=1, max_size=4
)
mask_strategy = st.sampled_from(
    [
        CausalMask(),
        LambdaMask(sink=4, window=16),
        SharedQuestionMask(num_answers=2, answer_fraction=0.25),
    ]
)


def _check(planner, block_set, seed):
    plan = planner.plan(block_set, CLUSTER)
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(block_set, seed=seed)
    executor.load_inputs(inputs)
    executor.run()
    outputs = executor.gather_outputs()
    references = reference_batch_outputs(block_set, inputs)
    for out, ref in zip(outputs, references):
        np.testing.assert_allclose(out, ref, rtol=3e-4, atol=3e-5)


@given(seqlens=batch_strategy, mask=mask_strategy, seed=st.integers(0, 100))
@settings(max_examples=12, deadline=None)
def test_dcp_random_batches(seqlens, mask, seed):
    block_set = generate_blocks(
        BatchSpec.build(seqlens, mask), ATTENTION, block_size=16
    )
    planner = DCPPlanner(
        CLUSTER, ATTENTION, DCPConfig(block_size=16,
                                      placement=PlacementConfig(restarts=1))
    )
    _check(planner, block_set, seed)


@given(seqlens=batch_strategy, mask=mask_strategy, seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_dcp_balanced_scheduler_random_batches(seqlens, mask, seed):
    block_set = generate_blocks(
        BatchSpec.build(seqlens, mask), ATTENTION, block_size=16
    )
    planner = DCPPlanner(
        CLUSTER, ATTENTION,
        DCPConfig(block_size=16, scheduler="balanced",
                  placement=PlacementConfig(restarts=1)),
    )
    _check(planner, block_set, seed)


@pytest.mark.parametrize(
    "planner",
    [
        RingAttentionPlanner(zigzag=False),
        RingAttentionPlanner(zigzag=True),
        TransformerEnginePlanner(),
    ],
    ids=lambda p: p.name,
)
@given(seqlens=batch_strategy, mask=mask_strategy, seed=st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_baselines_random_batches(planner, seqlens, mask, seed):
    block_set = generate_blocks(
        BatchSpec.build(seqlens, mask), ATTENTION, block_size=16
    )
    _check(planner, block_set, seed)
