"""Nothing per-token outlives planning.

A plan is held for a long time — in the pipeline's window and
``PlanCache``, in the service's cache, in every list of served plans —
so it must weigh O(blocks): no array it reaches may hold one entry per
token of a sequence.  The per-token attend ranges a mask yields are
read once while blocks are generated and again by the executor, which
derives them into its own state.  Each test walks every numpy array
reachable from a plan's ``block_set`` attributes, its ``meta`` and its
device plans, for plans from every route that produces or serves one.
"""

import types
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.core.planwire import decode_plan, encode_plan
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask
from repro.pipeline import StreamingOverlapPipeline, VirtualPlannerBackend
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.scheduling import rebind_plan
from repro.service import PlanService
from repro.sim import ClusterSpec

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
#: Few, long blocks: every per-block array stays far below a sequence's
#: token count, so an array that long can only be per-token state.
SEQLENS = [512, 256]
BLOCK_SIZE = 64

_LEAVES = (str, bytes, int, float, complex, bool, type(None), np.generic)
_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.MethodType)


def reachable_arrays(*roots):
    """Every numpy array reachable from ``roots`` through containers,
    instance dictionaries and slots (each object visited once)."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _LEAVES + _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for klass in type(obj).__mro__:
                slots = getattr(klass, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))


def assert_no_per_token_state(plan, batch):
    shortest = min(seq.seqlen for seq in batch.sequences)
    arrays = list(reachable_arrays(
        vars(plan.block_set), plan.meta, plan.device_plans
    ))
    assert arrays, "the walk must reach the plan's block arrays"
    oversized = [arr.shape for arr in arrays if arr.size >= shortest]
    assert not oversized, (
        f"arrays of {oversized} elements outlive planning "
        f"(shortest sequence: {shortest} tokens)"
    )


def make_planner(cluster=CLUSTER):
    return DCPPlanner(
        cluster, ATTENTION,
        DCPConfig(block_size=BLOCK_SIZE,
                  placement=PlacementConfig(seed=0, restarts=1)),
    )


def make_batch(mask=CausalMask()):
    return BatchSpec.build(SEQLENS, mask)


MASKS = [CausalMask(), LambdaMask(sink=16, window=96),
         SharedQuestionMask(num_answers=2, answer_fraction=0.3)]


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: m.name)
def test_plan_batch(mask):
    batch = make_batch(mask)
    assert_no_per_token_state(make_planner().plan_batch(batch), batch)


def test_decode_plan():
    batch = make_batch(LambdaMask(sink=16, window=96))
    plan = make_planner().plan_batch(batch)
    again = decode_plan(encode_plan(plan).to_bytes())
    assert_no_per_token_state(again, batch)


def test_rebind_plan():
    batch = make_batch()
    plan = make_planner().plan_batch(batch)
    grown = rebind_plan(plan, replace(CLUSTER, num_machines=3))
    assert_no_per_token_state(grown, batch)


def test_pipeline_served_plans():
    batches = [make_batch(mask) for mask in MASKS]
    planner = make_planner()
    backend = VirtualPlannerBackend(planner, 1, [0.01] * len(batches))
    with StreamingOverlapPipeline(batches, planner, lookahead=2,
                                  backend=backend) as pipeline:
        served = [plan for _, plan in pipeline]
    assert len(served) == len(batches)
    for plan, batch in zip(served, batches):
        assert_no_per_token_state(plan, batch)


def test_service_fetched_plan():
    batch = make_batch(SharedQuestionMask(num_answers=2, answer_fraction=0.3))
    with PlanService(make_planner(), workers=1) as service:
        plan = service.fetch_plan("t", batch, timeout=30.0)
        again = service.fetch_plan("t", batch, timeout=30.0)
    assert_no_per_token_state(plan, batch)
    assert_no_per_token_state(again, batch)


@pytest.mark.parametrize(
    "planner",
    [RingAttentionPlanner(), RingAttentionPlanner(zigzag=True),
     TransformerEnginePlanner()],
    ids=["ring", "ring_zigzag", "te"],
)
def test_baseline_plans(planner):
    batch = make_batch()
    block_set = generate_blocks(batch, ATTENTION, block_size=BLOCK_SIZE)
    assert_no_per_token_state(planner.plan(block_set, CLUSTER), batch)


@pytest.mark.parametrize("mask", MASKS[1:], ids=lambda m: m.name)
def test_executed_plan(mask):
    """Executing derives the masks into the executor, not the plan."""
    batch = make_batch(mask)
    plan = make_planner().plan_batch(batch)
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(plan.block_set, seed=1)
    executor.load_inputs(inputs)
    executor.run()
    reference = reference_batch_outputs(plan.block_set, inputs)
    for out, ref in zip(executor.gather_outputs(), reference):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)
    assert_no_per_token_state(plan, batch)
