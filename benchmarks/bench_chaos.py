"""Chaos benchmark: plan serving under injected failure.

Drives a replicated :class:`repro.service.PlanService` (R=2 on the
consistent-hash ring) with Zipf-distributed deadline-bearing client
load while a :mod:`repro.faults` schedule kills, slows and restarts
shards and planner workers in wall time.  Two scenarios:

* ``single_shard_kill`` — one of four shards is killed mid-run and
  later restarted (a restart wipes the shard: simulated data loss).
  R=2 must make this invisible: every request is served, every key
  stays readable from the surviving replica while the primary is
  down, read-repair + anti-entropy re-heal the wiped shard to full
  replication, and nothing is lost afterwards.
* ``double_fault`` — two of three shards die at once (keys whose
  whole owner set is gone stop being readable) *and* the planner
  workers are slowed past the client deadline.  Availability must
  still hold: fetches that cannot get an optimal plan inside the
  deadline are served the deterministic degraded fallback
  (``meta["degraded"] = True``) and upgraded in the background once
  the fault clears.

Measured per scenario: availability (served / issued), degraded-serve
fraction, recovery time (restart -> full replication on surviving
keys), mid-fault readability, fetch latency quantiles, and a
fingerprint-integrity count — every served plan must be
fingerprint-identical to the synchronous planner's article *or* be
explicitly degraded-tagged and fingerprint-identical to the
deterministic zigzag fallback.  Results land in ``BENCH_chaos.json``
(the smoke variant writes ``BENCH_chaos.smoke.json``); the tracked
full run records the CI floors ``check_bench_floors.py`` enforces
against every smoke rerun.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py          # full
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke  # quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_chaos.json")

#: Distinct batch signatures in the request stream — larger than the
#: hot cache so mid-rank signatures churn through the warm store and
#: shard faults are actually on the read path.
NUM_SIGNATURES = 32
CACHE_CAPACITY = 16
ZIPF_A = 1.1
NUM_TENANTS = 64
WORKERS = 2
CLIENTS = 4
REPLICATION = 2
#: Per-request budget: past this the service serves the degraded
#: fallback instead of failing (the availability contract under test).
DEADLINE_S = 0.5
ANTI_ENTROPY_S = 0.05
#: Injected planner-worker slowdown in the double-fault scenario —
#: deliberately past DEADLINE_S so cache misses on dead-owner keys
#: must take the degraded path.
WORKER_SLOW_S = 2.0

#: Wall-time scale of the fault schedules (smoke compresses it).
FULL_TIME_SCALE = 1.0
SMOKE_TIME_SCALE = 0.4

#: Floors recorded into the tracked full-run file and enforced by
#: ``check_bench_floors.py`` against every smoke rerun.
SMOKE_AVAILABILITY_MIN = 0.999
SMOKE_RECOVERY_S_MAX = 10.0
SMOKE_FINGERPRINT_VIOLATIONS_MAX = 0
SMOKE_DEGRADED_SERVED_MIN = 1  # double_fault must exercise the path

#: How long the post-run waits for background upgrades / healing may
#: take before the scenario is declared stuck.
DRAIN_TIMEOUT_S = 30.0


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _make_planner():
    from repro import AttentionSpec, ClusterSpec, DCPConfig, DCPPlanner

    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16, restarts=1))


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


def _references(universe: Sequence) -> Dict[str, List[str]]:
    """Per-signature fingerprints of both admissible served articles:
    the synchronous optimal plan and the deterministic zigzag
    fallback."""
    from repro.pipeline import plan_fingerprint
    from repro.service import degraded_plan

    optimal_planner = _make_planner()
    fallback_planner = _make_planner()
    return {
        "optimal": [
            plan_fingerprint(optimal_planner.plan_batch(batch))
            for batch in universe
        ],
        "degraded": [
            plan_fingerprint(degraded_plan(fallback_planner, batch))
            for batch in universe
        ],
    }


def _scenario_spec(name: str, scale: float) -> Dict:
    """Schedule + geometry for one chaos scenario (times in wall s)."""

    def t(x: float) -> float:
        return round(x * scale, 3)

    if name == "single_shard_kill":
        return {
            "name": name,
            "shards": 4,
            "schedule": (
                f"{t(1.0)} kill shard:shard1\n"
                f"{t(2.4)} restart shard:shard1\n"
            ),
            "probe_at": t(1.6),
            "recover_at": t(2.4),
            "run_s": t(4.5),
            "expected_restarts": 1,
        }
    if name == "double_fault":
        return {
            "name": name,
            "shards": 3,
            "schedule": (
                f"{t(0.8)} kill shard:shard0\n"
                f"{t(1.0)} kill shard:shard1\n"
                f"{t(1.0)} slow worker:0 {WORKER_SLOW_S}\n"
                f"{t(1.0)} slow worker:1 {WORKER_SLOW_S}\n"
                f"{t(2.6)} restart shard:shard0\n"
                f"{t(2.6)} restart shard:shard1\n"
                f"{t(2.6)} clear worker:0\n"
                f"{t(2.6)} clear worker:1\n"
            ),
            "probe_at": t(1.8),
            "recover_at": t(2.6),
            "run_s": t(4.5),
            "expected_restarts": 2,
        }
    raise ValueError(f"unknown scenario {name!r}")


def _run_scenario(spec: Dict, universe: Sequence, refs: Dict,
                  seed: int) -> Dict:
    from repro.faults import FaultInjector, ScheduleRunner, parse_schedule
    from repro.pipeline import plan_fingerprint
    from repro.service import PlanService, is_degraded

    injector = FaultInjector()
    schedule = parse_schedule(spec["schedule"])
    service = PlanService(
        _make_planner(),
        workers=WORKERS,
        cache_capacity=CACHE_CAPACITY,
        shards=spec["shards"],
        replication=REPLICATION,
        fault_injector=injector,
        anti_entropy_interval_s=ANTI_ENTROPY_S,
    )

    # Warm every signature through the service once: the store now
    # holds every optimal plan, so faults hit real replicated state.
    for batch in universe:
        service.fetch_plan("warm", batch, timeout=60.0)
    keys_before = sorted(service.store.keys())

    weights = 1.0 / np.arange(1, NUM_SIGNATURES + 1) ** ZIPF_A
    weights /= weights.sum()

    stop = threading.Event()
    lock = threading.Lock()
    tallies = {
        "requests": 0,
        "errors": 0,
        "degraded": 0,
        "fingerprint_violations": 0,
    }
    latencies: List[List[float]] = [[] for _ in range(CLIENTS)]
    violations: List[str] = []

    def client_loop(who: int) -> None:
        rng = np.random.default_rng(seed * 1000 + who)
        while not stop.is_set():
            rank = int(rng.choice(NUM_SIGNATURES, p=weights))
            tenant = f"tenant{int(rng.integers(0, NUM_TENANTS))}"
            start = time.perf_counter()
            try:
                plan = service.fetch_plan(
                    tenant, universe[rank], deadline=DEADLINE_S
                )
            except Exception as exc:  # unavailability, by definition
                with lock:
                    tallies["requests"] += 1
                    tallies["errors"] += 1
                    if len(violations) < 8:
                        violations.append(f"error[{rank}]: {exc!r}")
                time.sleep(0.005)
                continue
            latencies[who].append(time.perf_counter() - start)
            degraded = is_degraded(plan)
            expected = refs["degraded" if degraded else "optimal"][rank]
            matches = plan_fingerprint(plan) == expected
            with lock:
                tallies["requests"] += 1
                if degraded:
                    tallies["degraded"] += 1
                if not matches:
                    tallies["fingerprint_violations"] += 1
                    if len(violations) < 8:
                        violations.append(
                            f"fingerprint[{rank}] degraded={degraded}"
                        )
            # Yield between requests, as a client blocked on its socket
            # would: in-process clients that never block hold the GIL
            # so long that the fault-schedule thread applies its kills
            # hundreds of ms late, after the mid-fault probe.
            time.sleep(0)

    threads = [
        threading.Thread(target=client_loop, args=(who,), daemon=True)
        for who in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    t0 = time.monotonic()
    for thread in threads:
        thread.start()

    unreadable_during_fault = 0
    recovery_s: Optional[float] = None
    restarts_counter = service.metrics.counter("service.shard_restarts_seen")
    with ScheduleRunner(schedule, injector) as runner:
        # Mid-fault readability probe: every key written before the
        # fault, read back while the schedule's kills are in force.
        time.sleep(max(0.0, t0 + spec["probe_at"] - time.monotonic()))
        for key in keys_before:
            if service.store.try_get(key) is None:
                unreadable_during_fault += 1
        # Recovery clock starts at the schedule's restart instant and
        # stops when the wiped shards have been realized (restart
        # generations observed) and anti-entropy has restored full
        # replication for every surviving key.
        time.sleep(max(0.0, t0 + spec["recover_at"] - time.monotonic()))
        recover_start = time.monotonic()
        heal_deadline = recover_start + DRAIN_TIMEOUT_S
        while time.monotonic() < heal_deadline:
            if (restarts_counter.value >= spec["expected_restarts"]
                    and service.store.missing_replicas() == 0):
                recovery_s = time.monotonic() - recover_start
                break
            time.sleep(0.01)
        time.sleep(max(0.0, t0 + spec["run_s"] - time.monotonic()))
        runner.join(timeout=DRAIN_TIMEOUT_S)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    wall_s = time.perf_counter() - wall_start

    # Every degraded serve owes a background upgrade: wait for the
    # ledger to drain so the scenario ends with optimal plans only.
    drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while (service.pending_upgrades() > 0
           and time.monotonic() < drain_deadline):
        time.sleep(0.02)
    upgrades_drained = service.pending_upgrades() == 0

    service.store.sync()
    keys_after = set(service.store.keys())
    store_keys_lost = len([k for k in keys_before if k not in keys_after])

    stats = service.stats()
    service.close()

    flat = np.array([v for chunk in latencies for v in chunk])
    requests = tallies["requests"]
    availability = (
        (requests - tallies["errors"]) / requests if requests else 0.0
    )
    return {
        "scenario": spec["name"],
        "shards": spec["shards"],
        "replication": REPLICATION,
        "schedule": spec["schedule"].strip().splitlines(),
        "requests": requests,
        "errors": tallies["errors"],
        "availability": round(availability, 6),
        "degraded_served": tallies["degraded"],
        "degraded_fraction": round(
            tallies["degraded"] / requests if requests else 0.0, 5
        ),
        "fingerprint_violations": tallies["fingerprint_violations"],
        "violation_samples": violations,
        "unreadable_during_fault": unreadable_during_fault,
        "probed_keys": len(keys_before),
        "recovery_s": (
            round(recovery_s, 4) if recovery_s is not None else None
        ),
        "store_keys_lost": store_keys_lost,
        "upgrades_drained": upgrades_drained,
        "pending_upgrades": stats["pending_upgrades"],
        "plan_upgrades": stats["plan_upgrades"],
        "read_repairs": stats["read_repairs"],
        "store_put_failures": stats["store_put_failures"],
        "worker_job_errors": stats["worker_job_errors"],
        "shard_restarts_seen": restarts_counter.value,
        "wall_s": round(wall_s, 4),
        "p50_fetch_s": (
            round(float(np.percentile(flat, 50)), 6) if flat.size else None
        ),
        "p99_fetch_s": (
            round(float(np.percentile(flat, 99)), 6) if flat.size else None
        ),
        "throughput_rps": round(requests / wall_s, 1) if wall_s else 0.0,
    }


def run_chaos_bench(smoke: bool = False) -> Dict:
    scale = SMOKE_TIME_SCALE if smoke else FULL_TIME_SCALE
    rng = np.random.default_rng(0xFA17)
    universe = _make_universe(rng)
    refs = _references(universe)
    rows = [
        _run_scenario(_scenario_spec(name, scale), universe, refs,
                      seed=0xFA17 + index)
        for index, name in enumerate(("single_shard_kill", "double_fault"))
    ]
    report: Dict = {
        "benchmark": "chaos",
        "revision": _git_revision(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke_run": smoke,
        "config": {
            "signatures": NUM_SIGNATURES,
            "cache_capacity": CACHE_CAPACITY,
            "zipf_a": ZIPF_A,
            "tenants": NUM_TENANTS,
            "workers": WORKERS,
            "clients": CLIENTS,
            "replication": REPLICATION,
            "deadline_s": DEADLINE_S,
            "anti_entropy_interval_s": ANTI_ENTROPY_S,
            "worker_slow_s": WORKER_SLOW_S,
            "time_scale": scale,
        },
        "rows": rows,
    }
    if not smoke:
        # The tracked full-run file carries the CI floors the smoke
        # reruns are checked against (check_bench_floors.py).
        report["smoke"] = {
            "availability_min": SMOKE_AVAILABILITY_MIN,
            "recovery_s_max": SMOKE_RECOVERY_S_MAX,
            "fingerprint_violations_max": SMOKE_FINGERPRINT_VIOLATIONS_MAX,
            "degraded_served_min": SMOKE_DEGRADED_SERVED_MIN,
        }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="compressed fault schedules (CI variant; floors still "
        "apply via check_bench_floors.py)",
    )
    parser.add_argument(
        "--output", default=None,
        help="report destination (default: BENCH_chaos.json, or "
        "BENCH_chaos.smoke.json with --smoke)",
    )
    args = parser.parse_args(argv)

    report = run_chaos_bench(smoke=args.smoke)

    output = args.output or (
        os.path.join(REPO_ROOT, "BENCH_chaos.smoke.json")
        if args.smoke
        else OUTPUT_PATH
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    for row in report["rows"]:
        recovery = (
            f"{row['recovery_s']:.3f}s" if row["recovery_s"] is not None
            else "STUCK"
        )
        print(
            f"{row['scenario']:>18}  avail={row['availability']:.4f}  "
            f"degraded={row['degraded_fraction']:.4f}  "
            f"recovery={recovery}  "
            f"unreadable={row['unreadable_during_fault']}  "
            f"lost={row['store_keys_lost']}  "
            f"violations={row['fingerprint_violations']}  "
            f"rps={row['throughput_rps']}"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
