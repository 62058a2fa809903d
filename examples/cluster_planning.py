"""Explore DCP planning decisions across cluster shapes and masks.

A systems-oriented tour of the planner: for a fixed batch, show how
placement, communication and the division schedule change with
(a) the cluster topology, (b) the attention mask, and (c) the
imbalance tolerance — the knobs studied in the paper's §7.3.

Run:  python examples/cluster_planning.py
"""

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    generate_blocks,
    make_mask,
)
from repro.placement import Placement, PlacementConfig
from repro.sim import simulate_plan


def placement_of(plan) -> Placement:
    """The plan's own placement, rebuilt from its labels."""
    slice_device, comp_device = plan.meta["placement"][:2]
    return Placement(plan.block_set, plan.cluster, slice_device, comp_device)


def describe(planner: DCPPlanner, block_set, label: str) -> None:
    plan = planner.plan(block_set)
    placement = placement_of(plan)
    tokens = placement.tokens_per_device()
    flops = placement.flops_per_device()
    timing = simulate_plan(plan)
    print(f"\n== {label} ==")
    print(f"  tokens/device : {tokens.tolist()}")
    relative = (flops / max(flops.mean(), 1)).round(2)
    print(f"  flops balance : {relative.tolist()}  (1.0 = perfect)")
    print(f"  comm total    : {plan.total_comm_bytes() / 1e6:8.2f} MB")
    print(f"  comm inter-node: {plan.inter_machine_bytes() / 1e6:7.2f} MB")
    print(f"  sim fw time   : {timing.iteration_time * 1e3:8.3f} ms")
    breakdown = timing.breakdown()
    print(f"  exposed comm  : {breakdown['non_ovlp_comm'] * 1e3:8.3f} ms "
          f"(overlapped {breakdown['overlap'] * 1e3:.3f} ms)")


def main() -> None:
    attention = AttentionSpec(num_q_heads=8, num_kv_groups=2, head_dim=128)
    seqlens = [24576, 8192, 4096, 4096, 2048, 2048, 1024]
    causal = BatchSpec.build(seqlens, make_mask("causal"))
    causal_blocks = generate_blocks(causal, attention, block_size=1024)
    print(f"batch: {seqlens} (total {causal.total_tokens} tokens)")

    # (a) Cluster topology: same 8 devices, different machine layouts.
    for machines, per_machine in ((1, 8), (2, 4), (4, 2)):
        cluster = ClusterSpec(num_machines=machines,
                              devices_per_machine=per_machine)
        planner = DCPPlanner(cluster, attention, DCPConfig(block_size=1024))
        describe(planner, causal_blocks,
                 f"{machines} machine(s) x {per_machine} devices, causal")

    # (b) Mask sparsity on the 2x4 cluster.
    cluster = ClusterSpec(num_machines=2, devices_per_machine=4)
    for name in ("lambda", "causal_blockwise", "shared_question"):
        mask = make_mask(name) if name != "lambda" else make_mask(
            "lambda", sink=64, window=4096
        )
        batch = BatchSpec.build(seqlens, mask)
        blocks = generate_blocks(batch, attention, block_size=1024)
        planner = DCPPlanner(cluster, attention, DCPConfig(block_size=1024))
        describe(planner, blocks, f"2x4 cluster, {name} mask")

    # (c) Imbalance tolerance: trade computation balance for less comm.
    print("\n-- imbalance tolerance sweep (paper Fig. 20) --")
    for eps in (0.1, 0.4, 1.0):
        planner = DCPPlanner(
            cluster, attention,
            DCPConfig(block_size=1024,
                      placement=PlacementConfig(eps_inter=eps, eps_intra=eps)),
        )
        plan = planner.plan(causal_blocks)
        flops = placement_of(plan).flops_per_device()
        print(f"  eps={eps:3.1f}: inter-node "
              f"{plan.inter_machine_bytes() / 1e6:7.2f} MB, "
              f"flops max/mean {flops.max() / flops.mean():.2f}")


if __name__ == "__main__":
    main()
