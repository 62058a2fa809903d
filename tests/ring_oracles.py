"""The RingFlashAttention backward, for the tests.

The static ring of :mod:`repro.baselines.ring` lowers either pass
(``lower_ring(..., Backward)``), but no planner, pipeline or benchmark
delivers a ring backward plan: the simulator prices the baselines'
backward analytically.  The tests pin the ring backward's simulated
time and bytes, and execute it against the reference math, through the
two helpers here.
"""

from repro.baselines.ring import RingAttentionPlanner, lower_ring, ring_layout
from repro.blocks import BlockSet
from repro.runtime.backward import run_plans_forward_backward
from repro.scheduling.instructions import ExecutionPlan
from repro.scheduling.serialize import Backward
from repro.sim import ClusterSpec


def plan_ring_backward(
    block_set: BlockSet, cluster: ClusterSpec, zigzag: bool = False
) -> ExecutionPlan:
    """The RFA backward plan: the forward's ring, KV and dKV circulating."""
    layout = ring_layout(block_set, cluster.num_devices, 1, zigzag)
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=lower_ring(block_set, layout, Backward),
        meta={
            "planner": "rfa_zigzag" if zigzag else "rfa_ring",
            "phase": "backward",
        },
    )


def run_ring_forward_backward(
    block_set: BlockSet,
    cluster: ClusterSpec,
    inputs,
    grad_outputs,
    zigzag: bool = False,
):
    """Forward + backward through the RFA ring on the simulated cluster.

    Returns ``(outputs, grads, forward_executor, backward_executor)``
    like :func:`repro.runtime.backward.run_plans_forward_backward`.
    """
    return run_plans_forward_backward(
        RingAttentionPlanner(zigzag=zigzag).plan(block_set, cluster),
        plan_ring_backward(block_set, cluster, zigzag=zigzag),
        inputs,
        grad_outputs,
    )
