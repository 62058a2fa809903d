"""CI gate: fail if any smoke metric regressed past its recorded floor.

The tier-1 script (``benchmarks/run_tier1.sh``) runs the smoke
benchmarks, each of which already gates on its own headline metric.
This checker is the aggregate, CI-facing pass: it re-reads every smoke
output against the floors recorded in the *tracked* ``BENCH_*.json``
files, so a PR that silently weakens a bench's self-gate (or forgets to
run one) still fails the workflow.

Checked metrics:

* planner hot path — smoke ``total_s`` must stay under the budget
  recorded in ``BENCH_planner.json["smoke"]["total_s_max"]``, and the
  smoke point's ``refine_moves`` / ``gain_evals`` / ``comm_bytes`` must
  equal the counts pinned beside it (the search trajectory is
  deterministic: a changed count is a changed search);
* overlap pipeline — smoke steady-state hidden fraction must clear
  ``BENCH_overlap.json["smoke_floor"]``;
* streaming overlap — fixed and streaming smoke cells clear the same
  floor, the delta-vs-whole-window replan cost ratio stays under
  ``streaming.replan_cost_ratio_max``, delta and whole-window re-plans
  are fingerprint-identical after a removal and after a re-add, the
  re-add delta cell reused at least one settled plan (the
  ``rebind_plan`` path), and the KV per-device partial fetch keeps
  its wire-byte ratio under ``streaming.kv_wire_ratio_max``;
* plan service — the smoke Zipf stream ran against >= 1000 synthetic
  tenants, plan-fetch p99 stays under
  ``BENCH_service.json["smoke"]["p99_fetch_s_max"]``, the cache hit
  rate clears ``smoke.cache_hit_rate_min``, the pre-warm hit fraction
  clears ``smoke.prewarm_hit_fraction_min`` (and is non-zero — the
  forecaster actually warmed something demand then hit), and plans
  served through the service are fingerprint-identical to the
  synchronous planner;
* chaos — under the injected fault schedules availability stays above
  ``BENCH_chaos.json["smoke"]["availability_min"]`` in every scenario,
  every served plan is fingerprint-identical to the synchronous
  article or explicitly degraded-tagged (zero violations), the
  single-shard-kill scenario loses nothing (all keys readable from a
  replica mid-fault, none missing after healing), post-restart
  re-replication completes under ``smoke.recovery_s_max``, the
  double-fault scenario actually exercised degraded serving, and all
  owed background upgrades drained;
* scenario matrix — the smoke grid covers every mask family x packer
  pair with at least ``BENCH_scenarios.json["min_cells"]`` cells; every
  cell's steady hidden fraction clears
  ``BENCH_scenarios.json["smoke_hidden_floor"]``, and every plan that
  places a computation block away from its slices moved data
  (``bench_scenarios.missing_comm``); fixed-stream cells are fingerprint-identical
  to synchronous planning and event cells observed at least one
  re-plan;
* observability — the *tracked* ``BENCH_obs.json`` overhead ratios hold
  the acceptance ceilings (disabled ≤ 1.01, enabled ≤ 1.05 vs the
  uninstrumented smoke workload), the smoke rerun stays under the
  looser CI ceilings recorded in the tracked file, every required
  metric (planner stage latencies, plan-fetch split, cache/KV
  counters) is present in the smoke telemetry snapshot, and the smoke
  trace is a structurally valid Chrome trace carrying planner,
  pipeline, and simulated-execution lanes, in which every ``(pid,
  tid)`` track nests (:func:`partial_overlaps` finds nothing).

Usage::

    python benchmarks/check_bench_floors.py            # after run_tier1.sh
    python benchmarks/check_bench_floors.py --strict   # missing file = fail
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from bench_scenarios import missing_comm

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fallbacks when the tracked files predate a floor field.
DEFAULT_PLANNER_SMOKE_BUDGET_S = 1.0
DEFAULT_HIDDEN_FLOOR = 0.5
DEFAULT_REPLAN_RATIO_MAX = 0.8
DEFAULT_KV_WIRE_RATIO_MAX = 0.95
DEFAULT_SERVICE_P99_MAX_S = 2.5
DEFAULT_SERVICE_HIT_RATE_MIN = 0.6
DEFAULT_SERVICE_PREWARM_MIN = 0.0005
DEFAULT_CHAOS_AVAILABILITY_MIN = 0.999
DEFAULT_CHAOS_RECOVERY_S_MAX = 0.2
DEFAULT_CHAOS_VIOLATIONS_MAX = 0
DEFAULT_CHAOS_DEGRADED_MIN = 1
DEFAULT_SCENARIO_HIDDEN_FLOOR = 0.3
DEFAULT_SCENARIO_MIN_CELLS = 12
DEFAULT_OBS_DISABLED_RATIO_MAX = 1.01
DEFAULT_OBS_ENABLED_RATIO_MAX = 1.05
DEFAULT_OBS_SMOKE_DISABLED_RATIO_MAX = 1.05
DEFAULT_OBS_SMOKE_ENABLED_RATIO_MAX = 1.25

#: Metrics the obs telemetry workload must populate (mirrors
#: ``repro.obs.bench.REQUIRED_METRICS``; kept literal here so this
#: checker stays import-free and a PR cannot weaken the gate by
#: editing one list).
OBS_REQUIRED_METRICS = (
    "planner.plan_s",
    "planner.placement_s",
    "pipeline.plan_fetch_hit_s",
    "pipeline.plan_fetch_dispatch_s",
    "pipeline.iterations",
    "cache.hits",
    "cache.misses",
    "kv.put_s",
    "kv.get_s",
)

#: Chrome-trace categories the merged smoke trace must carry — one
#: lane per instrumented layer plus the simulator's execution lane.
OBS_REQUIRED_TRACE_CATS = ("planner", "pipeline", "compute")

#: Microseconds two slice edges may disagree by and still meet: the
#: writer's ``ts + dur`` rounds a few ulps off the interval's end.
NEST_TOLERANCE_US = 1e-6


def partial_overlaps(events: Sequence[dict]) -> List[Tuple[dict, dict]]:
    """``(enclosing, slice)`` pairs of complete events on one ``(pid,
    tid)`` track that partially overlap: the slice starts inside the
    enclosing one and ends after it.  Empty iff every track nests, as
    the trace-event format requires of complete events on one thread.
    """
    tracks: Dict[Tuple, List[dict]] = {}
    for event in events:
        if event.get("ph") == "X":
            tracks.setdefault((event["pid"], event["tid"]), []).append(event)
    found = []
    for slices in tracks.values():
        slices.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []  # slices enclosing the current start
        for event in slices:
            start = event["ts"]
            while stack and (
                stack[-1]["ts"] + stack[-1]["dur"] <= start + NEST_TOLERANCE_US
            ):
                stack.pop()
            if stack and start + event["dur"] > (
                stack[-1]["ts"] + stack[-1]["dur"] + NEST_TOLERANCE_US
            ):
                found.append((stack[-1], event))
            stack.append(event)
    return found


def _load(path: str) -> Optional[dict]:
    try:
        with open(os.path.join(REPO_ROOT, path)) as handle:
            return json.load(handle)
    except OSError:
        return None
    except ValueError as exc:
        raise SystemExit(f"unreadable benchmark file {path}: {exc}")


class Gate:
    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checks = 0

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        status = "ok  " if ok else "FAIL"
        print(f"{status}  {message}")
        if not ok:
            self.failures.append(message)


#: Work counts of the planner smoke point that must equal the tracked
#: file's ``smoke`` block exactly (bench_planner_hotpath.py records them).
PLANNER_PINNED_COUNTS = (
    "refine_moves",
    "gain_evals",
    "comm_bytes",
    "num_divisions",
    "attn_ms",
    "price_moves",
    "byte_moves",
)


def check_planner(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_planner.json")
    smoke = _load("BENCH_planner.smoke.json")
    if smoke is None:
        gate.check(not strict, "planner smoke output missing")
        return
    budget = DEFAULT_PLANNER_SMOKE_BUDGET_S
    if tracked:
        budget = float(
            tracked.get("smoke", {}).get(
                "total_s_max", DEFAULT_PLANNER_SMOKE_BUDGET_S
            )
        )
    total = max(float(row["total_s"]) for row in smoke["rows"])
    gate.check(
        total <= budget,
        f"planner smoke total {total:.3f}s <= budget {budget:.3f}s",
    )
    if tracked:
        pinned = tracked.get("smoke", {})
        row = smoke["rows"][0]
        for key in PLANNER_PINNED_COUNTS:
            gate.check(
                row.get(key) == pinned.get(key),
                f"planner smoke {key} {row.get(key)} == pinned "
                f"{pinned.get(key)}",
            )


def check_overlap(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_overlap.json") or {}
    floor = float(tracked.get("smoke_floor", DEFAULT_HIDDEN_FLOOR))
    smoke = _load("BENCH_overlap.smoke.json")
    if smoke is None:
        gate.check(not strict, "overlap smoke output missing")
    else:
        steady = float(smoke["rows"][0]["steady_hidden_fraction"])
        gate.check(
            steady >= floor,
            f"overlap smoke steady hidden {steady:.3f} >= floor {floor:.3f}",
        )

    streaming = _load("BENCH_overlap.streaming.smoke.json")
    if streaming is None:
        gate.check(not strict, "streaming smoke output missing")
        return
    tracked_streaming = tracked.get("streaming") or {}
    rows = {row["mode"]: row for row in streaming["rows"]}
    for mode in ("fixed", "streaming"):
        steady = float(rows[mode]["steady_hidden_fraction"])
        gate.check(
            steady >= floor,
            f"streaming smoke [{mode}] steady hidden {steady:.3f} >= "
            f"floor {floor:.3f}",
        )
    gate.check(
        int(streaming.get("replans", 0)) >= 1,
        f"streaming smoke measured {streaming.get('replans')} re-plans",
    )

    ratio = streaming.get("replan_cost_ratio")
    ratio_max = float(
        tracked_streaming.get(
            "replan_cost_ratio_max", DEFAULT_REPLAN_RATIO_MAX
        )
    )
    gate.check(
        ratio is not None and float(ratio) <= ratio_max,
        f"delta replan cost ratio {ratio} <= {ratio_max}",
    )
    gate.check(
        bool(streaming.get("delta_window_fingerprints_identical")),
        "delta re-plans fingerprint-identical to whole-window re-plans",
    )
    gate.check(
        bool(streaming.get("readd_fingerprints_identical")),
        "after a re-add, delta plans fingerprint-identical to "
        "whole-window re-plans",
    )
    readd = rows.get("readd_delta", {})
    gate.check(
        int(readd.get("replan_jobs_reused", 0)) >= 1,
        "re-add delta cell reused "
        f"{readd.get('replan_jobs_reused')} settled plans (>= 1)",
    )

    wire_ratio = streaming.get("kv_consumer_wire_ratio")
    wire_max = float(
        tracked_streaming.get(
            "kv_wire_ratio_max", DEFAULT_KV_WIRE_RATIO_MAX
        )
    )
    gate.check(
        wire_ratio is not None and float(wire_ratio) <= wire_max,
        f"KV partial-fetch wire ratio {wire_ratio} <= {wire_max}",
    )
    gate.check(
        int(streaming.get("kv_refetch_saved_bytes", 0)) > 0,
        "KV delta re-fetch saved wire bytes "
        f"({streaming.get('kv_refetch_saved_bytes')})",
    )


def check_service(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_service.json") or {}
    floors = tracked.get("smoke") or {}
    smoke = _load("BENCH_service.smoke.json")
    if smoke is None:
        gate.check(not strict, "plan-service smoke output missing")
        return

    p99_max = float(floors.get("p99_fetch_s_max", DEFAULT_SERVICE_P99_MAX_S))
    hit_min = float(
        floors.get("cache_hit_rate_min", DEFAULT_SERVICE_HIT_RATE_MIN)
    )
    prewarm_min = float(
        floors.get("prewarm_hit_fraction_min", DEFAULT_SERVICE_PREWARM_MIN)
    )
    rows = smoke.get("rows") or []
    gate.check(bool(rows), "plan-service smoke recorded at least one cell")
    for row in rows:
        clients = row.get("clients")
        gate.check(
            int(row.get("tenants", 0)) >= 1000,
            f"service [{clients} clients] tenant population "
            f"{row.get('tenants')} >= 1000",
        )
        p99 = float(row.get("p99_fetch_s", 99.0))
        gate.check(
            p99 <= p99_max,
            f"service [{clients} clients] fetch p99 {p99:.4f}s <= "
            f"{p99_max}s",
        )
        hit = float(row.get("cache_hit_rate", 0.0))
        gate.check(
            hit >= hit_min,
            f"service [{clients} clients] cache hit rate {hit:.3f} >= "
            f"{hit_min}",
        )
        prewarm = float(row.get("prewarm_hit_fraction", 0.0))
        gate.check(
            prewarm >= prewarm_min and prewarm > 0.0,
            f"service [{clients} clients] pre-warm hit fraction "
            f"{prewarm:.4f} >= {prewarm_min} (and > 0)",
        )
    gate.check(
        bool(smoke.get("fingerprints_identical")),
        "service-served plans fingerprint-identical to synchronous "
        "planning",
    )


def check_chaos(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_chaos.json") or {}
    floors = tracked.get("smoke") or {}
    smoke = _load("BENCH_chaos.smoke.json")
    if smoke is None:
        gate.check(not strict, "chaos smoke output missing")
        return

    avail_min = float(
        floors.get("availability_min", DEFAULT_CHAOS_AVAILABILITY_MIN)
    )
    recovery_max = float(
        floors.get("recovery_s_max", DEFAULT_CHAOS_RECOVERY_S_MAX)
    )
    violations_max = int(
        floors.get(
            "fingerprint_violations_max", DEFAULT_CHAOS_VIOLATIONS_MAX
        )
    )
    degraded_min = int(
        floors.get("degraded_served_min", DEFAULT_CHAOS_DEGRADED_MIN)
    )

    rows = {row["scenario"]: row for row in smoke.get("rows") or []}
    for scenario in ("single_shard_kill", "double_fault"):
        gate.check(
            scenario in rows,
            f"chaos smoke ran the {scenario} scenario",
        )
    for scenario, row in rows.items():
        avail = float(row.get("availability", 0.0))
        gate.check(
            avail >= avail_min,
            f"chaos [{scenario}] availability {avail:.4f} >= {avail_min}",
        )
        violations = int(row.get("fingerprint_violations", 99))
        gate.check(
            violations <= violations_max,
            f"chaos [{scenario}] served plans fingerprint-identical or "
            f"degraded-tagged ({violations} violations)",
        )
        recovery = row.get("recovery_s")
        gate.check(
            recovery is not None and float(recovery) <= recovery_max,
            f"chaos [{scenario}] re-replication recovered in {recovery}s "
            f"<= {recovery_max}s",
        )
        gate.check(
            bool(row.get("upgrades_drained"))
            and int(row.get("pending_upgrades", 1)) == 0,
            f"chaos [{scenario}] background plan upgrades drained",
        )

    kill = rows.get("single_shard_kill") or {}
    gate.check(
        int(kill.get("unreadable_during_fault", 99)) == 0,
        "chaos [single_shard_kill] every key readable from a replica "
        f"mid-fault ({kill.get('unreadable_during_fault')} unreadable "
        f"of {kill.get('probed_keys')})",
    )
    gate.check(
        int(kill.get("store_keys_lost", 99)) == 0,
        "chaos [single_shard_kill] no keys lost after healing "
        f"({kill.get('store_keys_lost')} lost)",
    )
    double = rows.get("double_fault") or {}
    gate.check(
        int(double.get("degraded_served", 0)) >= degraded_min,
        f"chaos [double_fault] degraded serving exercised "
        f"({double.get('degraded_served')} serves >= {degraded_min})",
    )


def check_scenarios(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_scenarios.json") or {}
    smoke = _load("BENCH_scenarios.smoke.json")
    if smoke is None:
        gate.check(not strict, "scenario-matrix smoke output missing")
        return

    hidden_floor = float(
        tracked.get("smoke_hidden_floor", DEFAULT_SCENARIO_HIDDEN_FLOOR)
    )
    min_cells = int(tracked.get("min_cells", DEFAULT_SCENARIO_MIN_CELLS))
    rows = smoke.get("rows") or []
    gate.check(
        len(rows) >= min_cells,
        f"scenario matrix ran {len(rows)} cells >= {min_cells}",
    )
    config = smoke.get("config") or {}
    covered = {(row["mask_family"], row["packer"]) for row in rows}
    missing = [
        f"{family}/{packer}"
        for family in config.get("mask_families") or []
        for packer in config.get("packers") or []
        if (family, packer) not in covered
    ]
    gate.check(
        not missing,
        "scenario matrix covers every mask family x packer pair"
        + (f" (missing: {', '.join(missing)})" if missing else ""),
    )

    worst = min(
        (float(row["steady_hidden_fraction"]) for row in rows), default=0.0
    )
    gate.check(
        worst >= hidden_floor,
        f"scenario matrix worst steady hidden fraction {worst:.3f} >= "
        f"floor {hidden_floor:.3f}",
    )
    no_comm = [row["scenario"] for row in rows if missing_comm(row)]
    gate.check(
        not no_comm,
        "every scenario plan that places a block away from its slices "
        "moved data"
        + (f" (silent: {', '.join(no_comm)})" if no_comm else ""),
    )
    unverified = [
        row["scenario"] for row in rows
        if row.get("stream") == "fixed"
        and not row.get("fingerprints_identical")
    ]
    gate.check(
        not unverified,
        "fixed-stream scenario plans fingerprint-identical to "
        "synchronous planning"
        + (f" (diverged: {', '.join(unverified)})" if unverified else ""),
    )
    event_rows = [row for row in rows if row.get("stream") == "events"]
    gate.check(
        bool(event_rows),
        f"scenario matrix ran {len(event_rows)} event cells",
    )
    stuck = [
        row["scenario"] for row in event_rows
        if int(row.get("replans", 0)) < 1
    ]
    gate.check(
        not stuck,
        "every event scenario cell re-planned"
        + (f" (no re-plan: {', '.join(stuck)})" if stuck else ""),
    )


def check_obs(gate: Gate, strict: bool) -> None:
    tracked = _load("BENCH_obs.json")
    if tracked is None:
        gate.check(not strict, "tracked BENCH_obs.json missing")
    else:
        # The acceptance ceilings hold on the tracked full run itself:
        # instrumentation must be ≈ free when disabled, ≤5% enabled.
        disabled_max = float(
            tracked.get("disabled_ratio_max", DEFAULT_OBS_DISABLED_RATIO_MAX)
        )
        enabled_max = float(
            tracked.get("enabled_ratio_max", DEFAULT_OBS_ENABLED_RATIO_MAX)
        )
        gate.check(
            float(tracked.get("disabled_ratio", 99.0)) <= disabled_max,
            f"tracked obs disabled-tracer ratio "
            f"{tracked.get('disabled_ratio')} <= {disabled_max}",
        )
        gate.check(
            float(tracked.get("enabled_ratio", 99.0)) <= enabled_max,
            f"tracked obs enabled-tracer ratio "
            f"{tracked.get('enabled_ratio')} <= {enabled_max}",
        )

    smoke = _load("BENCH_obs.smoke.json")
    if smoke is None:
        gate.check(not strict, "obs smoke output missing")
        return
    smoke_ceilings = (tracked or {}).get("smoke") or {}
    disabled_max = float(
        smoke_ceilings.get(
            "disabled_ratio_max", DEFAULT_OBS_SMOKE_DISABLED_RATIO_MAX
        )
    )
    enabled_max = float(
        smoke_ceilings.get(
            "enabled_ratio_max", DEFAULT_OBS_SMOKE_ENABLED_RATIO_MAX
        )
    )
    gate.check(
        float(smoke.get("disabled_ratio", 99.0)) <= disabled_max,
        f"obs smoke disabled-tracer ratio {smoke.get('disabled_ratio')} "
        f"<= {disabled_max}",
    )
    gate.check(
        float(smoke.get("enabled_ratio", 99.0)) <= enabled_max,
        f"obs smoke enabled-tracer ratio {smoke.get('enabled_ratio')} "
        f"<= {enabled_max}",
    )
    snapshot = smoke.get("metrics") or {}
    missing = [
        name for name in OBS_REQUIRED_METRICS if name not in snapshot
    ]
    gate.check(
        not missing,
        "obs required metrics present"
        + (f" (missing: {', '.join(missing)})" if missing else ""),
    )
    fetch = smoke.get("plan_fetch") or {}
    gate.check(
        all(
            int((fetch.get(path) or {}).get("count", 0)) >= 1
            for path in ("hit", "dispatch")
        ),
        "obs plan-fetch latency observed on both hit and dispatch paths",
    )

    trace = _load("TRACE_obs.smoke.json")
    if trace is None:
        gate.check(not strict, "obs smoke trace missing")
        return
    events = trace.get("traceEvents")
    gate.check(
        isinstance(events, list) and len(events) > 0,
        f"obs smoke trace holds {len(events or [])} events",
    )
    cats = {
        event.get("cat")
        for event in events or []
        if event.get("ph") == "X"
    }
    missing_cats = [
        cat for cat in OBS_REQUIRED_TRACE_CATS if cat not in cats
    ]
    gate.check(
        not missing_cats,
        "obs smoke trace carries planner/pipeline/execution lanes"
        + (f" (missing: {', '.join(missing_cats)})" if missing_cats else ""),
    )
    overlaps = partial_overlaps(events or [])
    gate.check(
        not overlaps,
        "obs smoke trace: every (pid, tid) track nests"
        + (f" ({len(overlaps)} partial overlaps)" if overlaps else ""),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat a missing smoke output as a failure (CI runs the "
        "smokes first, so absence means a bench silently did not run)",
    )
    args = parser.parse_args(argv)

    gate = Gate()
    check_planner(gate, strict=args.strict)
    check_overlap(gate, strict=args.strict)
    check_service(gate, strict=args.strict)
    check_chaos(gate, strict=args.strict)
    check_scenarios(gate, strict=args.strict)
    check_obs(gate, strict=args.strict)

    if gate.failures:
        print(
            f"\n{len(gate.failures)}/{gate.checks} smoke floor checks "
            "FAILED:"
        )
        for failure in gate.failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall {gate.checks} smoke floor checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
