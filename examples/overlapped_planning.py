"""Hide planning behind execution with the overlap pipeline (§6.1).

Drives :class:`repro.pipeline.StreamingOverlapPipeline` over the Fig.
18 sweep configuration — background planner workers plan batch ``i + kappa``
while batch ``i`` "executes" (the 8B-GPT cost-model iteration time) —
and prints the *measured* overlap: how much planning was hidden, where
the stalls were, how often the plan cache short-circuited a worker.
It writes the tracer's Chrome/Perfetto trace of the run — ``fetch {i}``
/ ``exec {i}`` on the consumer thread, every ``plan_batch`` and its
stages on the planner worker that ran it — and then replays the
measured per-iteration times through the same pipeline on virtual time
(``repro.pipeline.replay``, the §6.1 model) to show measurement and
model agreeing.

Run:  python examples/overlapped_planning.py           # scaled-down, ~30 s
      python examples/overlapped_planning.py --full    # Fig. 18 sweep size
"""

import argparse
import json
import os

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.core import DCPPlanner, PlanCache
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import (
    PipelineRunner,
    StreamingOverlapPipeline,
    cost_model_executor,
    replay,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the actual Fig. 18 sweep point (32768 tokens, block "
        "512); default scales tokens down 4x for a quick demo",
    )
    parser.add_argument("--kappa", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    tokens = 32768 if args.full else 8192
    scale = BenchScale.sweep(
        num_batches=6,
        token_budget=tokens,
        max_seqlen=tokens,
        block_size=512,
    )
    batches = make_batches(
        "longdatacollections", scale, PAPER_MASKS["causal"]()
    )[:6] * 2  # second cycle repeats signatures: the cache's moment
    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    cache = PlanCache(planner, capacity=32)

    pipeline = StreamingOverlapPipeline(
        batches,
        planner,
        lookahead=args.kappa,
        max_workers=args.workers,
        cache=cache,
    )
    print(
        f"planning {len(batches)} batches ({tokens} tokens, 2x4 devices) "
        f"with kappa={args.kappa}, {args.workers} thread workers ..."
    )
    enable_tracing()
    try:
        stats = PipelineRunner(
            pipeline, execute=cost_model_executor(time_scale=1.0)
        ).run().stats
    finally:
        disable_tracing()

    print("\n== measured overlap ==")
    print(f"iterations            {stats.iterations}")
    print(f"planning total        {stats.total_plan_s:.3f} s")
    print(f"execution total       {stats.total_exec_s:.3f} s")
    print(f"stalls (exposed plan) {stats.total_stall_s:.3f} s "
          f"in {stats.stall_count} iteration(s)")
    print(f"hidden fraction       {stats.hidden_fraction:.3f} "
          f"(steady state: {stats.steady_hidden_fraction:.3f})")
    print(f"prefetch queue depth  mean {stats.queue_depth_mean:.1f} / "
          f"max {stats.queue_depth_max}")
    if stats.plan_cache:
        print(f"plan cache            {stats.plan_cache['hits']} hits / "
              f"{stats.plan_cache['misses']} misses "
              f"(rate {stats.plan_cache['hit_rate']:.2f})")

    print("\niter  plan_s   exec_s   stall_s  cache")
    for record in stats.records:
        print(
            f"{record.index:>4}  {record.plan_s:7.3f}  {record.exec_s:7.3f}"
            f"  {record.stall:7.3f}  {'hit' if record.cache_hit else '-'}"
        )

    # The trace goes first: the replay below runs with tracing off.
    out_dir = os.path.join(os.path.dirname(__file__), "traces")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "overlap_pipeline.json")
    with open(trace_path, "w") as handle:
        json.dump(get_tracer().to_chrome_trace(), handle)
    print(f"\nwrote {trace_path} (open in chrome://tracing or Perfetto)")

    # The pipeline on virtual time, fed the measured per-iteration
    # times, should predict roughly the stalls it measured on wall time.
    predicted = replay(
        [r.plan_s for r in stats.records],
        [r.exec_s for r in stats.records],
        args.workers,
        args.kappa,
    )
    print(
        f"virtual-time replay of the measured profile: stall fraction "
        f"{predicted.stall_fraction:.3f} "
        f"(measured {stats.stall_fraction:.3f})"
    )


if __name__ == "__main__":
    main()
