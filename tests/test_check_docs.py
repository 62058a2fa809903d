"""The docs gate's stale-symbol and stale-keyword checks
(benchmarks/check_docs.py)."""

import importlib.util
import os

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "check_docs.py",
)
_spec = importlib.util.spec_from_file_location("check_docs", _PATH)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_deleted_names_are_flagged():
    text = (
        "`FixedListPipeline` lives in `repro.pipeline.streaming`; read "
        "`ProcessPlannerBackend.transport_stats` or `repro.core.Nope`."
    )
    assert check_docs.stale_symbols(text) == [
        "FixedListPipeline",
        "ProcessPlannerBackend.transport_stats",
        "repro.core.Nope",
        "repro.pipeline.streaming",
    ]


def test_live_names_resolve():
    text = (
        "`StreamingOverlapPipeline.stats()`, `PlanService(workers=2)`, "
        "`OverlapStats.plan_cache` (a field whose default is None), "
        "`ProcessPlannerBackend.metrics` (set in __init__), "
        "`repro.core.planwire`, `repro.pipeline.shm.PlanRing`; "
        "not symbols: `BENCH_overlap.json`, `lookahead + 1`, `shm`."
    )
    assert check_docs.stale_symbols(text) == []


def test_deleted_keywords_are_flagged():
    text = (
        "`KVPlannerBackend(planner, KVStore(host_machine=1), monolithic=True)`"
        " and `repro.core.KVStore(retain=2, host_machine=1)`; "
        "`PlanService.fetch_plan(tenant, batch, dead_line=0.3)`."
    )
    assert check_docs.stale_keywords(text) == [
        ("KVPlannerBackend(planner, KVStore(host_machine=1), monolithic=True)",
         "monolithic"),
        ("PlanService.fetch_plan(tenant, batch, dead_line=0.3)", "dead_line"),
        ("repro.core.KVStore(retain=2, host_machine=1)", "retain"),
    ]


def test_accepted_keywords_pass():
    text = (
        "`KVPlannerBackend(planner, KVStore(), num_machines=2)`, "
        "`PlanService.fetch_plan(deadline=0.3)`, "
        # **kwargs callee: anything goes; not a repro callable; not a call.
        "`DistributedDataloader(batches, backend, whatever=1)`, "
        "`dict(a=1)`, `lookahead = 2`, `a == b`."
    )
    assert check_docs.stale_keywords(text) == []


def test_tracked_docs_have_no_stale_symbols():
    assert check_docs.stale_symbol_references() == []
