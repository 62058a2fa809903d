#!/usr/bin/env bash
# Tier-1 verify + ledger smoke + perf smokes (planner hot path,
# planning overlap, streaming overlap) + pipeline coverage gate +
# reachability check.
#
#   ./benchmarks/run_tier1.sh            # tests + smoke benchmarks
#   ./benchmarks/run_tier1.sh --full     # tests + full benchmark sweeps
#                                        # (rewrites BENCH_planner.json
#                                        #  and BENCH_overlap.json)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest -x -q (+ pipeline coverage gate >= 85%) =="
if python -c "import pytest_cov" 2>/dev/null; then
    # One pass: the full suite doubles as the coverage run.
    python -m pytest -x -q --cov=repro.pipeline --cov-fail-under=85
else
    python -m pytest -x -q
    # pytest-cov is absent in the container image: same gate through
    # the dep-free settrace tracer (needs its own traced run).
    echo "== pipeline coverage gate (settrace fallback) =="
    python benchmarks/pipeline_coverage.py --fail-under 85
fi

echo "== ledger smoke (end-to-end output checks) =="
# Every workload at seconds-sized geometry (~8 s); exits non-zero on any
# failed validate, wire, fingerprint or executor-vs-reference check.
# Results go to the gitignored benchmarks/ledger/out/.
python3 benchmarks/ledger/run.py --smoke

echo "== examples (each must exit 0) =="
# Five examples assert their results, and distributed_backward.py is
# the one end-to-end backward run outside pytest (~22 s in all on two
# CPUs, most of it quickstart.py).
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

echo "== planner hot-path smoke =="
if [[ "${1:-}" == "--full" ]]; then
    python benchmarks/bench_planner_hotpath.py
else
    # The smoke run writes to a scratch file so it never clobbers the
    # tracked full-sweep numbers in BENCH_planner.json.
    python benchmarks/bench_planner_hotpath.py --smoke \
        --output "$REPO_ROOT/BENCH_planner.smoke.json"
fi

echo "== overlap pipeline smoke =="
if [[ "${1:-}" == "--full" ]]; then
    python benchmarks/bench_overlap_pipeline.py
else
    # Gates: exits non-zero if the measured steady-state planning-hidden
    # fraction regresses below the smoke_floor in BENCH_overlap.json.
    python benchmarks/bench_overlap_pipeline.py --smoke \
        --output "$REPO_ROOT/BENCH_overlap.smoke.json"
fi

echo "== streaming overlap smoke =="
if [[ "${1:-}" == "--full" ]]; then
    # Rewrites the "streaming" section of BENCH_overlap.json.
    python benchmarks/bench_overlap_pipeline.py --streaming
else
    # Gates the online mode on the same fixed-stream hidden-fraction
    # floor, plus measured-replan, delta-replan-cost and
    # fingerprint-identity checks.
    python benchmarks/bench_overlap_pipeline.py --streaming --smoke \
        --output "$REPO_ROOT/BENCH_overlap.streaming.smoke.json"
fi

echo "== plan service smoke =="
if [[ "${1:-}" == "--full" ]]; then
    # Rewrites BENCH_service.json (client-count sweep + CI floors).
    python benchmarks/bench_plan_service.py
else
    # Multi-tenant Zipf stream (>= 1000 tenants): p99 fetch latency,
    # cache hit rate and pre-warm hit fraction are gated against the
    # floors in BENCH_service.json by check_bench_floors.py below.
    python benchmarks/bench_plan_service.py --smoke \
        --output "$REPO_ROOT/BENCH_service.smoke.json"
fi

echo "== chaos (fault injection) smoke =="
if [[ "${1:-}" == "--full" ]]; then
    # Rewrites BENCH_chaos.json (full-length fault schedules + floors).
    python benchmarks/bench_chaos.py
else
    # Compressed fault schedules against the replicated plan service:
    # availability, mid-fault readability, re-replication recovery,
    # degraded-serve integrity — gated against the floors in
    # BENCH_chaos.json by check_bench_floors.py below.
    python benchmarks/bench_chaos.py --smoke \
        --output "$REPO_ROOT/BENCH_chaos.smoke.json"
fi

echo "== scenario matrix smoke =="
if [[ "${1:-}" == "--full" ]]; then
    # Rewrites BENCH_scenarios.json (full 30-cell mask x packer x
    # stream grid + floors).
    python benchmarks/bench_scenarios.py
else
    # Reduced grid (>= 12 cells): every mask family x streaming packer
    # fixed cell plus event cells, gated on the per-cell hidden-fraction
    # floor, fingerprint identity, and re-plan observation recorded in
    # BENCH_scenarios.json.
    python benchmarks/bench_scenarios.py --smoke \
        --output "$REPO_ROOT/BENCH_scenarios.smoke.json"
fi

echo "== observability smoke =="
if [[ "${1:-}" == "--full" ]]; then
    # Rewrites BENCH_obs.json and the Fig. 18 sweep-point TRACE_obs.json.
    python benchmarks/bench_overlap_pipeline.py --obs
else
    # Gates tracer/metrics overhead (disabled ≈ free, enabled bounded)
    # against the ceilings in BENCH_obs.json, plus required-metric
    # presence and merged-trace validity.
    python benchmarks/bench_overlap_pipeline.py --obs --smoke \
        --output "$REPO_ROOT/BENCH_obs.smoke.json"
fi

if [[ "${1:-}" != "--full" ]]; then
    echo "== smoke floors vs tracked BENCH_*.json =="
    # The aggregate regression gate CI runs on every PR: every smoke
    # metric must clear the floor recorded in the tracked full-sweep
    # files (strict: a missing smoke output is itself a failure).
    python benchmarks/check_bench_floors.py --strict
fi

echo "== docs freshness =="
# Every tracked BENCH_*.json and every src/repro/* package must be
# documented under docs/, and every relative link and backticked repro
# symbol in docs/ and README.md must resolve.
python benchmarks/check_docs.py

echo "== reachability (no unreached function without a reason) =="
# Re-runs the entry points above (ledger smoke, examples, python -m
# repro.plan, the smoke benchmarks) under a function-entry tracer and
# fails on a src/repro function none of them enters unless
# benchmarks/reachability_kept.txt keeps it for a stated reason (~2 min).
# With --full it also runs the full sweeps, in a copy of the tree, and
# names every function only they reach (~9 min).
if [[ "${1:-}" == "--full" ]]; then
    python benchmarks/reachability.py --full
else
    python benchmarks/reachability.py
fi
