"""The performance ledger: four workloads, one harness, one revision.

With ``--workload`` this runs one workload once and prints, as the last
line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every ``end_to_end`` metric
of ``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1`` (a layer the workload does not exercise reads 0).

Without ``--workload`` it runs every workload in a fresh subprocess,
untraced then traced, prints every metric by name with its unit, and
writes the stamped results to ``--out`` (default
``benchmarks/ledger/out/ledger.json``).  It exits non-zero when any
output check failed.

    python benchmarks/ledger/run.py --seed 0
    python benchmarks/ledger/run.py --workload causal_long --seed 3 --trace 1
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Workload -> the module that drives it.
DRIVERS = {
    "causal_long": "ledger_sync",
    "sparse_mixed": "ledger_sync",
    "stream_replan": "ledger_stream",
    "service_openloop": "ledger_service",
}


def load_contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def stamp(seed: int) -> dict:
    """What every result file records about where it was measured."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def declared_metrics(contract: dict, trace: int) -> List[dict]:
    return contract["per_layer" if trace else "end_to_end"]


def shape_metrics(contract: dict, trace: int, measured: Dict[str, float]):
    """``measured`` in the shape the contract declares, or an error.

    End-to-end metrics must all be measured; a per-layer metric the
    workload does not exercise reads 0.  A metric nobody declared is a
    bug in the driver, not something to print.
    """
    declared = declared_metrics(contract, trace)
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    shaped = {}
    for metric in declared:
        if metric["name"] in measured:
            value = float(measured[metric["name"]])
        elif trace:
            value = 0.0
        else:
            raise KeyError(f"end-to-end metric {metric['name']} not measured")
        shaped[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return shaped


def run_one(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False
) -> dict:
    """Run one workload in this process; returns the full record."""
    contract = load_contract()
    # Measure this checkout's ``repro``, whatever else is installed.
    for path in (HERE, os.path.join(REPO_ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import_start = time.perf_counter()
    driver = importlib.import_module(DRIVERS[workload])
    import_s = time.perf_counter() - import_start
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        outcome = driver.run_traced(
            workload,
            seed,
            seconds,
            smoke,
            os.path.join(OUT_DIR, f"trace.{workload}.json"),
        )
    else:
        outcome = driver.run_untraced(workload, seed, seconds, smoke)
        outcome.metrics["setup_s"] += import_s
        outcome.detail["import_s"] = import_s
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "smoke": smoke,
        "stamp": stamp(seed),
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures,
        "metrics": shape_metrics(contract, trace, outcome.metrics),
        "detail": outcome.detail,
        "process_s": time.perf_counter() - _PROCESS_START,
    }


def print_metrics(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} seed {record['stamp']['seed']} {kind}")
    for name, metric in record["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


def result_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def _dump(record, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
        handle.write("\n")


def main_one(args) -> int:
    trace = args.trace or 0
    record = run_one(args.workload, args.seed, args.seconds, trace, args.smoke)
    _dump(
        record,
        args.record
        or os.path.join(OUT_DIR, f"{args.workload}.trace{trace}.json"),
    )
    print_metrics(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


def main_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    contract = load_contract()
    os.makedirs(OUT_DIR, exist_ok=True)
    records, status = [], 0
    for run in range(args.runs):
        for workload in (w["name"] for w in contract["workloads"]):
            for trace in (0, 1) if args.trace is None else (args.trace,):
                record_path = os.path.join(OUT_DIR, f".{workload}.{trace}.json")
                command = [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--workload", workload,
                    "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--record", record_path,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True)
                if done.returncode not in (0, 1) or not os.path.exists(
                    record_path
                ):
                    sys.stderr.write(done.stdout + done.stderr)
                    return 2
                with open(record_path, encoding="utf-8") as handle:
                    record = json.load(handle)
                os.remove(record_path)
                print_metrics(record)
                records.append(record)
                status |= done.returncode
    _dump(
        {"benchmark": "ledger", "stamp": stamp(args.seed), "runs": records},
        args.out,
    )
    print(f"wrote {args.out}")
    return status


def stop_children() -> None:
    """Stop every process this one started; return when each has ended.

    ``multiprocessing.shared_memory`` (the ``PlanRing`` probe, a process
    planner backend) starts a resource-tracker child that exits only once
    it sees its parent gone, so it would outlive the run by a moment and
    be found running by whoever started the benchmark.  Pool workers a
    failed run left behind are killed first, then the tracker is stopped
    the way ``multiprocessing`` stops it; each is waited for.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe, then waitpid()s it


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in contract["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"])
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics, tracing off (the one-workload default); "
        "1: per-layer metrics from the traced run; all-workloads mode "
        "runs both unless one is given",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-sized test geometry"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="all-workloads mode: repeat at seeds seed, seed+1, ...",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(OUT_DIR, "ledger.json"),
        help="all-workloads mode: where the stamped results go",
    )
    parser.add_argument(
        "--record", help="one-workload mode: where the full record goes"
    )
    args = parser.parse_args(argv)
    try:
        return main_all(args) if args.workload is None else main_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
