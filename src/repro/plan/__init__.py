"""``python -m repro.plan``: plan one batch and inspect the result.

Usage::

    python -m repro.plan --seqlens 16384 4096 2048 --mask lambda \\
        --machines 2 --devices 4 --block-size 1024

Prints the placement summary (tokens / FLOPs / memory per device),
communication volumes, the simulated timeline as an ASCII Gantt chart,
and optionally writes a Chrome trace (``--trace out.json``) or compares
against a baseline (``--baseline rfa_zigzag``).  This is the
kick-the-tires tool: everything the planner decides for one batch,
visible in one screen.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..baselines import (
    LoongTrainPlanner,
    RingAttentionPlanner,
    TransformerEnginePlanner,
)
from ..blocks import AttentionSpec, BatchSpec, generate_blocks
from ..core import DCPConfig, DCPPlanner
from ..masks import make_mask
from ..sim import (
    ClusterSpec,
    ascii_gantt,
    plan_memory,
    simulate_plan,
    write_chrome_trace,
)

__all__ = ["main"]

_BASELINES = {
    "rfa_ring": lambda: RingAttentionPlanner(zigzag=False),
    "rfa_zigzag": lambda: RingAttentionPlanner(zigzag=True),
    "loongtrain": lambda: LoongTrainPlanner(),
    "te": lambda: TransformerEnginePlanner(),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.plan",
        description="Plan one batch with DCP and inspect the result.",
    )
    parser.add_argument("--seqlens", type=int, nargs="+", required=True,
                        help="sequence lengths of the batch")
    parser.add_argument("--mask", default="causal",
                        help="mask name for make_mask (default: causal)")
    parser.add_argument("--machines", type=int, default=2)
    parser.add_argument("--devices", type=int, default=4,
                        help="devices per machine")
    parser.add_argument("--block-size", type=int, default=1024)
    parser.add_argument("--divisions", type=int, default=4,
                        help="at most this many computation/communication"
                             " divisions; the scheduler picks the cheapest")
    parser.add_argument("--q-heads", type=int, default=8)
    parser.add_argument("--kv-groups", type=int, default=2)
    parser.add_argument("--head-dim", type=int, default=128)
    parser.add_argument("--baseline", choices=sorted(_BASELINES),
                        default=None,
                        help="also plan with a baseline and compare")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace of the DCP timeline")
    parser.add_argument("--gantt-width", type=int, default=64)
    return parser


def _report(name: str, plan, width: int) -> float:
    timing = simulate_plan(plan)
    memory = plan_memory(plan)
    tokens = {
        device: sum(ts.tokens for ts in dp.local_slices)
        for device, dp in sorted(plan.device_plans.items())
    }
    print(f"\n== {name} ==")
    print(f"tokens/device : {list(tokens.values())}")
    print(f"comm          : {plan.total_comm_bytes() / 1e6:.2f} MB total, "
          f"{plan.inter_machine_bytes() / 1e6:.2f} MB inter-node")
    print(f"memory        : {memory.max_bytes / 1e6:.1f} MB peak/device, "
          f"imbalance {memory.imbalance():.2f}")
    print(f"attention fw  : {timing.iteration_time * 1e3:.3f} ms simulated")
    print(ascii_gantt(timing, width=width))
    return timing.iteration_time


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Bad input ends in one line on stderr, not a traceback.
    try:
        cluster = ClusterSpec(
            num_machines=args.machines, devices_per_machine=args.devices
        )
        attention = AttentionSpec(
            num_q_heads=args.q_heads,
            num_kv_groups=args.kv_groups,
            head_dim=args.head_dim,
        )
        config = DCPConfig(
            block_size=args.block_size, num_divisions=args.divisions
        )
        batch = BatchSpec.build(args.seqlens, make_mask(args.mask))
        block_set = generate_blocks(batch, attention, args.block_size)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"batch: {len(args.seqlens)} sequences, {batch.total_tokens} tokens,"
        f" mask {args.mask}; {block_set.summary()}"
    )

    planner = DCPPlanner(cluster, attention, config)
    plan = planner.plan_batch(batch)
    stats = plan.meta["planning_stats"]
    print(
        f"planning: {stats.total:.3f} s "
        f"(blocks {stats.block_generation:.3f}, "
        f"placement {stats.placement:.3f}, "
        f"scheduling {stats.scheduling:.3f})"
    )
    prices = ", ".join(
        f"T={count} {1e3 * seconds:.3f}"
        for count, seconds in sorted(plan.meta["division_prices"].items())
    )
    print(
        f"divisions: T={stats.num_divisions} chosen "
        f"(priced fw+bw ms: {prices})"
    )
    prices = ", ".join(
        f"{source} {1e3 * seconds:.3f}"
        for source, seconds in plan.meta["placement_prices"].items()
    )
    print(
        f"placement: {stats.placement_source} chosen "
        f"(priced fw+bw ms: {prices})"
    )
    print(f"tiles: {stats.attention_tiles} rows over "
          f"{stats.tile_pairs} block pairs; "
          f"price moves {stats.price_moves}, "
          f"byte moves {stats.byte_moves}")
    dcp_time = _report("dcp", plan, args.gantt_width)

    if args.trace:
        write_chrome_trace(simulate_plan(plan), args.trace)
        print(f"\nchrome trace written to {args.trace}")

    if args.baseline:
        baseline = _BASELINES[args.baseline]()
        base_plan = baseline.plan(block_set, cluster)
        base_time = _report(args.baseline, base_plan, args.gantt_width)
        print(
            f"\nspeed-up (attention fw): {base_time / dcp_time:.2f}x "
            f"over {args.baseline}"
        )
    return 0

