"""Multi-tenant plan-service benchmark.

Drives a :class:`repro.service.PlanService` with a Zipf-distributed
batch-signature stream issued by concurrent client threads on behalf
of >= 1000 synthetic tenants, and records — per client-count cell —
plan-fetch latency quantiles (p50/p99), cache hit rate, pre-warm hit
fraction, admission rejections, and planner-worker utilization.
Results land in ``BENCH_service.json`` at the repo root (the smoke
variant writes ``BENCH_service.smoke.json`` so tracked full-sweep
numbers are never clobbered).

The cell geometry is chosen to exercise every serving tier: the
signature universe is larger than the hot cache (mid-rank Zipf
signatures churn through the LRU), the sharded store holds every plan
ever made (a churned signature is decoded, not re-planned), and the
forecaster's epoch rolls pre-warm predicted-hot evicted signatures
back into the cache, where the next demand hit counts as a pre-warm
hit.

A fingerprint identity probe asserts plans served through the service
are byte-identical (:func:`repro.pipeline.plan_fingerprint`) to the
synchronous ``planner.plan_batch`` article.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan_service.py          # full
    PYTHONPATH=src python benchmarks/bench_plan_service.py --smoke  # quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from revision import git_revision

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_service.json")

#: Synthetic tenant population (the acceptance bar is >= 1000 even in
#: the smoke cell).
NUM_TENANTS = 1200
#: Distinct batch signatures in the request stream.
NUM_SIGNATURES = 64
#: Zipf skew of signature popularity (a -> 1 flattens).
ZIPF_A = 1.1
#: Hot-cache capacity — deliberately < NUM_SIGNATURES so mid-rank
#: signatures churn and the store + pre-warm tiers do real work.
CACHE_CAPACITY = 32
WORKERS = 4
SHARDS = 4
EPOCH_REQUESTS = 200
PREWARM_TOP_K = 24

DEFAULT_CLIENTS = (4, 8, 16)
DEFAULT_REQUESTS_PER_CELL = 4000
SMOKE_CLIENTS = (8,)
SMOKE_REQUESTS_PER_CELL = 1600

#: Floors recorded into the tracked full-run file and enforced by
#: ``check_bench_floors.py`` against every smoke run.  Ceilings leave
#: generous headroom over local measurements for shared CI runners
#: while still catching order-of-magnitude regressions.
SMOKE_P99_FETCH_S_MAX = 2.5
SMOKE_CACHE_HIT_RATE_MIN = 0.6
SMOKE_PREWARM_HIT_FRACTION_MIN = 0.0005


def _make_planner():
    from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner
    from repro.placement import PlacementConfig

    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16,
                                placement=PlacementConfig(restarts=1)))


def _make_universe(rng: np.random.Generator) -> List:
    """NUM_SIGNATURES distinct small batches (distinct signatures)."""
    from repro import BatchSpec, make_mask

    mask = make_mask("causal")
    universe = []
    seen = set()
    while len(universe) < NUM_SIGNATURES:
        count = int(rng.integers(1, 4))
        seqlens = sorted(
            int(rng.integers(1, 7)) * 16 for _ in range(count)
        )
        key = tuple(seqlens)
        if key in seen:
            continue
        seen.add(key)
        universe.append(BatchSpec.build(seqlens, mask))
    return universe


def _zipf_ranks(rng: np.random.Generator, count: int) -> np.ndarray:
    """Zipf(ZIPF_A) ranks clipped into the signature universe."""
    weights = 1.0 / np.arange(1, NUM_SIGNATURES + 1) ** ZIPF_A
    weights /= weights.sum()
    return rng.choice(NUM_SIGNATURES, size=count, p=weights)


def _run_cell(clients: int, requests: int, seed: int) -> Dict:
    from repro.service import AdmissionController, PlanRejected, PlanService

    rng = np.random.default_rng(seed)
    universe = _make_universe(rng)
    ranks = _zipf_ranks(rng, requests)
    tenants = rng.integers(0, NUM_TENANTS, size=requests)

    service = PlanService(
        _make_planner(),
        workers=WORKERS,
        cache_capacity=CACHE_CAPACITY,
        shards=SHARDS,
        admission=AdmissionController(
            max_queued_per_tenant=8,
            max_inflight_per_tenant=4,
            max_queued_total=4 * WORKERS * clients,
        ),
        epoch_requests=EPOCH_REQUESTS,
        prewarm_top_k=PREWARM_TOP_K,
    )

    per_client = np.array_split(np.arange(requests), clients)
    latencies: List[List[float]] = [[] for _ in range(clients)]
    rejections = [0] * clients
    errors: List[BaseException] = []

    def client_loop(who: int) -> None:
        try:
            for index in per_client[who]:
                batch = universe[int(ranks[index])]
                tenant = f"tenant{int(tenants[index])}"
                start = time.perf_counter()
                while True:
                    try:
                        service.fetch_plan(tenant, batch, timeout=60.0)
                        break
                    except PlanRejected as exc:
                        # Honor the backoff hint, then retry: the
                        # recorded latency covers the whole request,
                        # shed attempts included.
                        rejections[who] += 1
                        time.sleep(exc.retry_after_s or 0.005)
                latencies[who].append(time.perf_counter() - start)
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(who,), daemon=True)
        for who in range(clients)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start
    if errors:
        raise errors[0]

    stats = service.stats()
    service.close()
    flat = np.array([value for chunk in latencies for value in chunk])
    utilization = stats["worker_busy_s"] / (stats["workers"] * wall_s)
    return {
        "clients": clients,
        "requests": int(flat.size),
        "tenants": NUM_TENANTS,
        "tenants_seen": int(np.unique(tenants).size),
        "signatures": NUM_SIGNATURES,
        "zipf_a": ZIPF_A,
        "wall_s": round(wall_s, 4),
        "p50_fetch_s": round(float(np.percentile(flat, 50)), 6),
        "p99_fetch_s": round(float(np.percentile(flat, 99)), 6),
        "cache_hit_rate": round(stats["cache_hit_rate"], 4),
        "store_hits": stats["store_hits"],
        "planned": stats["planned"],
        "prewarm_submitted": stats["prewarm_submitted"],
        "prewarm_promoted": stats["prewarm_promoted"],
        "prewarm_hits": stats["prewarm_hits"],
        "prewarm_hit_fraction": round(stats["prewarm_hit_fraction"], 5),
        "rejected": int(sum(rejections)),
        "worker_utilization": round(utilization, 4),
        "forecast_epochs": stats["forecast_epoch"],
        "throughput_rps": round(flat.size / wall_s, 1),
    }


def _fingerprint_probe(seed: int = 7, samples: int = 5) -> bool:
    """Service-served plans must equal the synchronous article."""
    from repro.pipeline import plan_fingerprint
    from repro.service import PlanService

    rng = np.random.default_rng(seed)
    universe = _make_universe(rng)
    planner = _make_planner()
    reference = _make_planner()
    with PlanService(planner, workers=2, cache_capacity=CACHE_CAPACITY,
                     shards=2) as service:
        for batch in universe[:samples]:
            served = service.fetch_plan("probe", batch, timeout=60.0)
            if plan_fingerprint(served) != plan_fingerprint(
                reference.plan_batch(batch)
            ):
                return False
    return True


def run_service_bench(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    requests_per_cell: int = DEFAULT_REQUESTS_PER_CELL,
    smoke: bool = False,
) -> Dict:
    rows = [
        _run_cell(count, requests_per_cell, seed=0xDC9 + index)
        for index, count in enumerate(clients)
    ]
    report: Dict = {
        "benchmark": "plan_service",
        "revision": git_revision(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke_run": smoke,
        "config": {
            "tenants": NUM_TENANTS,
            "signatures": NUM_SIGNATURES,
            "zipf_a": ZIPF_A,
            "cache_capacity": CACHE_CAPACITY,
            "workers": WORKERS,
            "shards": SHARDS,
            "epoch_requests": EPOCH_REQUESTS,
            "prewarm_top_k": PREWARM_TOP_K,
            "requests_per_cell": requests_per_cell,
        },
        "rows": rows,
        "fingerprints_identical": _fingerprint_probe(),
    }
    if not smoke:
        # The tracked full-run file carries the CI floors the smoke
        # reruns are checked against (check_bench_floors.py).
        report["smoke"] = {
            "p99_fetch_s_max": SMOKE_P99_FETCH_S_MAX,
            "cache_hit_rate_min": SMOKE_CACHE_HIT_RATE_MIN,
            "prewarm_hit_fraction_min": SMOKE_PREWARM_HIT_FRACTION_MIN,
        }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single quick cell (CI variant; floors still apply via "
        "check_bench_floors.py)",
    )
    parser.add_argument(
        "--output", default=None,
        help="report destination (default: BENCH_service.json, or "
        "BENCH_service.smoke.json with --smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_service_bench(
            clients=SMOKE_CLIENTS,
            requests_per_cell=SMOKE_REQUESTS_PER_CELL,
            smoke=True,
        )
    else:
        report = run_service_bench()

    output = args.output or (
        os.path.join(REPO_ROOT, "BENCH_service.smoke.json")
        if args.smoke
        else OUTPUT_PATH
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    for row in report["rows"]:
        print(
            f"clients={row['clients']:>3}  "
            f"p50={row['p50_fetch_s'] * 1e3:8.2f}ms  "
            f"p99={row['p99_fetch_s'] * 1e3:8.2f}ms  "
            f"hit={row['cache_hit_rate']:.3f}  "
            f"prewarm={row['prewarm_hit_fraction']:.4f}  "
            f"util={row['worker_utilization']:.3f}  "
            f"rps={row['throughput_rps']}"
        )
    print(f"fingerprints_identical={report['fingerprints_identical']}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
