"""Planner hot-path microbenchmark.

Times the three planner stages — block generation, placement
(partitioning), and scheduling — separately across batch sizes and
block sizes, and writes ``BENCH_planner.json`` at the repo root so the
perf trajectory is tracked across PRs.

The headline configuration is the Fig. 18 sweep point the tentpole
speedup target is measured on: 512-token blocks, causal mask, the
2x4-device sweep cluster.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_planner_hotpath.py --smoke   # quick

Runs standalone (no pytest needed); also exposed as a pytest test so it
rides along with the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

from revision import git_revision

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_planner.json")

DEFAULT_TOKEN_BUDGETS = (8192, 16384, 32768)
DEFAULT_BLOCK_SIZES = (512, 1024)
SMOKE_TOKEN_BUDGETS = (2048,)
SMOKE_BLOCK_SIZES = (256,)
#: The paper mask every point plans.
MASK = "causal"

#: Wall-clock budget for the smoke configuration's total planning time,
#: recorded in the tracked BENCH_planner.json and enforced by
#: benchmarks/check_bench_floors.py.  The smoke point measures
#: 0.015-0.018 s since the search stops where it cannot pay (it
#: measured 0.037-0.057 s before that, 0.135-0.23 s before the
#: incremental gain tables): the budget is 1.5x the measured value, so
#: a planner half as fast again fails it.
SMOKE_TOTAL_S_MAX = 0.024

#: Deterministic work counts of the smoke point, pinned next to the
#: budget: they are machine-independent, and any change to the search
#: trajectory moves the first three, any change to the scheduler's
#: priced choice the next two (the chosen count and the plan's simulated
#: forward + backward attention), and any change to the price search's
#: trajectory the moves it kept (its price phase, then its byte phase).
#: A PR that changes either on purpose re-records them by regenerating
#: BENCH_planner.json.
SMOKE_PINNED_COUNTS = (
    "refine_moves",
    "gain_evals",
    "comm_bytes",
    "num_divisions",
    "attn_ms",
    "price_moves",
    "byte_moves",
)


def run_hotpath_bench(
    token_budgets: Sequence[int] = DEFAULT_TOKEN_BUDGETS,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    repeats: int = 2,
) -> Dict:
    """Time planner stages for every (token budget, block size) point."""
    from repro.bench.harness import BenchScale, PAPER_MASKS, make_batches
    from repro.core import DCPPlanner
    from repro.sim import simulate_plan

    rows: List[Dict] = []
    for token_budget in token_budgets:
        scale = BenchScale.sweep(
            num_batches=1,
            token_budget=int(token_budget),
            max_seqlen=int(token_budget),
        )
        batches = make_batches("longalign", scale, PAPER_MASKS[MASK]())
        for block_size in block_sizes:
            planner = DCPPlanner(
                scale.cluster,
                scale.attention,
                scale.dcp_config(block_size=int(block_size)),
            )
            best = None
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                for batch in batches:
                    plan = planner.plan_batch(batch)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best[0]:
                    best = (elapsed, plan.meta["planning_stats"])
            elapsed, stats = best
            comm = plan.total_comm_bytes()
            attn_s = sum(
                simulate_plan(plan, backward=backward).iteration_time
                for backward in (False, True)
            )
            rows.append(
                {
                    "token_budget": int(token_budget),
                    "block_size": int(block_size),
                    "mask": MASK,
                    "total_s": round(elapsed, 6),
                    "block_generation_s": round(stats.block_generation, 6),
                    "placement_s": round(stats.placement, 6),
                    "scheduling_s": round(stats.scheduling, 6),
                    "num_vertices": stats.num_vertices,
                    "num_edges": stats.num_edges,
                    "refine_moves": stats.refine_moves,
                    "gain_evals": stats.gain_evals,
                    "comm_bytes": int(comm),
                    "num_divisions": stats.num_divisions,
                    "attn_ms": round(1e3 * attn_s, 6),
                    "price_moves": stats.price_moves,
                    "byte_moves": stats.byte_moves,
                }
            )
            print(
                f"tokens={token_budget:>6} block={block_size:>5} "
                f"total={elapsed:.3f}s gen={stats.block_generation:.3f}s "
                f"place={stats.placement:.3f}s sched={stats.scheduling:.3f}s "
                f"moves={stats.refine_moves} comm={comm / 1e6:.1f}MB "
                f"T={stats.num_divisions} attn={1e3 * attn_s:.3f}ms "
                f"price_moves={stats.price_moves} "
                f"byte_moves={stats.byte_moves}"
            )
    return {
        "benchmark": "planner_hotpath",
        "mask": MASK,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": {"total_s_max": SMOKE_TOTAL_S_MAX},
        "rows": rows,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default=OUTPUT_PATH,
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_hotpath_bench(
            SMOKE_TOKEN_BUDGETS, SMOKE_BLOCK_SIZES, repeats=1
        )
    else:
        report = run_hotpath_bench()
        smoke_row = run_hotpath_bench(
            SMOKE_TOKEN_BUDGETS, SMOKE_BLOCK_SIZES, repeats=1
        )["rows"][0]
        report["smoke"].update(
            {key: smoke_row[key] for key in SMOKE_PINNED_COUNTS}
        )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


def test_planner_hotpath_smoke():
    """Pytest entry point: smoke-size run, sanity-check the stages."""
    report = run_hotpath_bench(
        SMOKE_TOKEN_BUDGETS, SMOKE_BLOCK_SIZES, repeats=1
    )
    assert report["rows"], "benchmark produced no rows"
    for row in report["rows"]:
        assert row["total_s"] > 0
        assert row["num_vertices"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
