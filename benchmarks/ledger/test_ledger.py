"""Tier-1 checks of the ledger itself (smoke-sized, a few seconds).

They hold the benchmark to its own contract: the names it prints are
the names ``BENCHMARK.json`` declares, inputs follow the seed, the
open-loop driver times from the due time, and deterministic metrics
repeat exactly.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import time

import ledger_workloads as workloads
import pytest
from ledger_service import drive_open_loop

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _load(name: str):
    """``run.py`` / ``compare.py`` under a name no other module uses."""
    spec = importlib.util.spec_from_file_location(
        f"ledger_{name}", os.path.join(HERE, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger_run = _load("run")
ledger_compare = _load("compare")
CONTRACT = ledger_run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def smoke_records():
    """One smoke run of every workload, untraced and traced."""
    return {
        (workload, trace): ledger_run.run_one(
            workload, seed=0, seconds=1.0, trace=trace, smoke=True
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert WORKLOADS == list(ledger_run.DRIVERS)
    names = WORKLOADS + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_smoke_emits_exactly_the_declared_metrics(smoke_records):
    for (workload, trace), record in smoke_records.items():
        declared = ledger_run.declared_metrics(CONTRACT, trace)
        assert list(record["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert UNIT.fullmatch(emitted["unit"])
            assert isinstance(emitted["value"], float)
            if not trace:
                assert emitted["value"] > 0, (workload, metric["name"])
        assert record["correct"] and record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        line = json.loads(ledger_run.result_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {"git_revision", "python", "machine", "nproc", "seed"} <= set(
            record["stamp"]
        )
        assert record["detail"]["obs_metrics"], (workload, trace)


def test_traced_sync_replay_covers_the_batch(smoke_records):
    for workload in ("causal_long", "sparse_mixed"):
        detail = smoke_records[(workload, 1)]["detail"]
        assert detail["span_coverage_min"] >= 0.95
    assert os.path.exists(os.path.join(HERE, "out", "trace.causal_long.json"))


def test_deterministic_metrics_repeat_exactly(smoke_records):
    again = {
        trace: ledger_run.run_one("causal_long", 0, 1.0, trace, smoke=True)
        for trace in (0, 1)
    }
    for trace, names in (
        (0, ("attn_sim_ms", "comm_mb_per_batch", "attn_speedup_vs_te")),
        (1, ("hypergraph.gain_evals", "hypergraph.refine_moves",
             "hypergraph.vertices", "hypergraph.edges")),
    ):
        first = smoke_records[("causal_long", trace)]["metrics"]
        for name in names:
            assert again[trace]["metrics"][name] == first[name], name


def _signature(workload: str, seed: int):
    scale = workloads.scale_for(workload, smoke=True)
    specs, _ = workloads.planning_specs(workload, seed, 4, scale, smoke=True)
    return [
        tuple((seq.seqlen, repr(seq.mask)) for seq in spec.sequences)
        for spec in specs
    ]


@pytest.mark.parametrize("workload", WORKLOADS[:3])
def test_planning_inputs_follow_the_seed(workload):
    assert _signature(workload, 5) == _signature(workload, 5)
    assert _signature(workload, 5) != _signature(workload, 6)


def test_service_inputs_follow_the_seed():
    def schedule(seed):
        universe = workloads.service_universe(seed, hot=6)
        steps = workloads.arrival_schedule(seed, universe, step_s=0.5)
        return [
            (
                step.rate,
                step.due_s.tolist(),
                step.tenants,
                [[s.seqlen for s in b.sequences] for b in step.batches],
            )
            for step in steps
        ]

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)
    steps = workloads.arrival_schedule(
        3, workloads.service_universe(3, hot=6), step_s=5.0
    )
    assert [len(step.batches) for step in steps] == [100, 200, 400]
    assert [step.fresh for step in steps] == [3, 6, 12]


def test_open_loop_latency_runs_from_the_due_time():
    """A 50 ms stall must show in the requests queued behind it."""
    count = 16
    due_s = [0.005 * i for i in range(count)]

    def fetch(_tenant, index):
        if index == 1:
            time.sleep(0.05)
        return index

    result = drive_open_loop(
        fetch, due_s, [("t", i) for i in range(count)], clients=1
    )
    assert result.plans == list(range(count)) and not any(result.errors)
    assert result.latency_s[1] >= 0.05
    # Requests 2-4 were due 5-15 ms into the stall: their own service
    # time is ~0, but they waited ~45-35 ms for it, and the generator
    # sent them that late.
    for index in (2, 3, 4):
        assert result.latency_s[index] > 0.03, result.latency_s
        assert result.lateness_s[index] > 0.03, result.lateness_s
    assert result.latency_s[2] > result.latency_s[4]
    # Once the backlog has drained, latency is the service time again.
    assert result.latency_s[-1] < 0.02, result.latency_s


def test_open_loop_counts_a_raising_fetch():
    def fetch(_tenant, index):
        if index == 0:
            raise TimeoutError("too slow")
        return index

    result = drive_open_loop(fetch, [0.0, 0.001], [("t", 0), ("t", 1)])
    assert "TimeoutError" in result.errors[0] and result.errors[1] is None


def test_compare_verdicts():
    contract = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }
    steady = [100.0, 101.0, 99.0, 100.5, 100.0]
    a = {"w": {"t_ms": steady, "ops": steady}}
    worse = {"w": {"t_ms": [v * 1.2 for v in steady],
                   "ops": [v * 0.8 for v in steady]}}
    better = {"w": {"t_ms": [v * 0.8 for v in steady],
                    "ops": [v * 1.2 for v in steady]}}
    noisy = {"w": {"t_ms": [80.0, 120.0, 100.0, 60.0, 140.0], "ops": steady}}
    verdicts = lambda b: [  # noqa: E731
        row["verdict"] for row in ledger_compare.compare(a, b, contract)
    ]
    assert verdicts(a) == ["ok", "ok"]
    assert verdicts(worse) == ["worse", "worse"]
    assert verdicts(better) == ["ok", "ok"]
    assert verdicts(noisy) == ["unresolved", "ok"]
