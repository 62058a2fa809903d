"""The docs gate's stale-symbol, stale-keyword, stale-path and
stale-cross-reference and stale-``__all__`` checks
(benchmarks/check_docs.py)."""

import importlib.util
import os
import types

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
        "`KVPlannerBackend.metrics` (set in __init__), "
        "`repro.core.planwire`, `repro.pipeline.shm.PlanRing`; "
        "not symbols: `BENCH_overlap.json`, `lookahead + 1`, `shm`."
    )
    assert check_docs.stale_symbols(text) == []


def test_deleted_keywords_are_flagged():
    text = (
        "`KVPlannerBackend(planner, KVStore(metrics=registry), monolithic=True)`"
        " and `repro.core.KVStore(retain=2, host_machine=1)`; "
        "`PlanService.fetch_plan(tenant, batch, dead_line=0.3)`."
    )
    assert check_docs.stale_keywords(text) == [
        ("KVPlannerBackend(planner, KVStore(metrics=registry), monolithic=True)",
         "monolithic"),
        ("PlanService.fetch_plan(tenant, batch, dead_line=0.3)", "dead_line"),
        ("repro.core.KVStore(retain=2, host_machine=1)", "retain"),
        ("repro.core.KVStore(retain=2, host_machine=1)", "host_machine"),
    ]


def test_accepted_keywords_pass():
    text = (
        "`KVPlannerBackend(planner, KVStore(), num_machines=2)`, "
        "`PlanService.fetch_plan(deadline=0.3)`, "
        # **kwargs callee: anything goes; not a repro callable; not a call.
        "`make_mask(\"lambda\", whatever=1)`, "
        "`dict(a=1)`, `lookahead = 2`, `a == b`."
    )
    assert check_docs.stale_keywords(text) == []


def test_tracked_docs_have_no_stale_symbols():
    assert check_docs.stale_symbol_references() == []


def test_stale_py_paths_are_flagged():
    text = (
        "`baselines/ring_backward.py` and `scheduling/serialize.py:_tiles`; "
        "run `python benchmarks/bench_gone.py --smoke`."
    )
    assert check_docs.stale_py_paths(text) == [
        "baselines/ring_backward.py: no such file",
        "benchmarks/bench_gone.py: no such file",
        "scheduling/serialize.py:_tiles: not defined there",
    ]


def test_live_py_paths_resolve():
    text = (
        "`baselines/ring.py:static_ring_plan` (a def), "
        "`scheduling/serialize.py:Forward` (a class), "
        "`ring.py` is not at a root but `baselines/ring.py` is; "
        "`check_bench_floors.py:check_scenarios`, "
        "`tests/test_static_guard.py::TestSensitivity` (a pytest node), "
        "`benchmarks/check_docs.py:PY_ROOTS` (an assignment), "
        "`python3 benchmarks/ledger/run.py --smoke`, `examples/quickstart.py`."
    )
    assert check_docs.stale_py_paths(text) == ["ring.py: no such file"]


def test_stale_xrefs_are_flagged():
    text = (
        "Run by :func:`~repro.runtime.backward.run_plans_forward_backward`,"
        " not :func:`repro.runtime.run_plans_forward_backward`; see "
        ":mod:`repro.placement.volume`, :class:`repro.placement.Placement`,"
        " :meth:`~repro.placement.Placement.comm_report` and "
        ":attr:`repro.scheduling.Schedule.placement_prices`."
    )
    assert check_docs.stale_xrefs(text) == [
        "repro.placement.Placement.comm_report",
        "repro.placement.volume",
        "repro.runtime.run_plans_forward_backward",
    ]


def test_source_has_no_stale_xrefs():
    assert check_docs.stale_source_xrefs() == []


def test_stale_all_entries_are_flagged():
    module = types.ModuleType("fixture")
    module.__all__ = ["kept", "device_payload", "KVClient"]
    module.kept = object()
    bare = types.ModuleType("bare")  # no __all__: nothing to check
    assert check_docs.stale_all_entries([module, bare]) == [
        "fixture: device_payload",
        "fixture: KVClient",
    ]


def test_source_has_no_stale_all_entries():
    assert check_docs.stale_all_entries() == []


def test_stale_kept_entries_are_flagged(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text(
        "# comment\n"
        "repro/core/cache.py::PlanCache.abandon  safety  waiters\n"
        "repro/core/cache.py::PlanCache.gone  oracle  deleted long ago\n"
        "repro/plan/__init__.py::main(argv)  fake  tests pass argv\n"
        "repro/plan/__init__.py::main(gone)  fake  deleted long ago\n"
    )
    gone, gone_param = check_docs.stale_kept_entries(str(kept))
    assert "repro/core/cache.py::PlanCache.gone" in gone
    assert "repro/plan/__init__.py::main(gone)" in gone_param


def test_stale_kept_fields_and_flags_are_flagged(tmp_path):
    """A kept field its configuration class no longer has, or a kept
    flag its script no longer defines, is stale; live ones are not."""
    kept = tmp_path / "kept.txt"
    kept.write_text(
        "repro/core/config.py::DCPConfig.scheduler  ledger  frozen ledger\n"
        "repro/core/config.py::DCPConfig.eps_data  ledger  moved away\n"
        "benchmarks/bench_chaos.py::--smoke  safety  passed by CI\n"
        "benchmarks/bench_chaos.py::--gone  safety  deleted long ago\n"
    )
    stale = check_docs.stale_kept_entries(str(kept))
    assert [entry.split(": ", 1)[1].split()[0] for entry in stale] == [
        "repro/core/config.py::DCPConfig.eps_data",
        "benchmarks/bench_chaos.py::--gone",
    ]


def test_kept_entry_needs_a_known_reason(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text("repro/core/cache.py::PlanCache.abandon  tidy  why not\n")
    [failure] = check_docs.stale_kept_entries(str(kept))
    assert "tag from" in failure


def test_tracked_kept_list_has_no_stale_entries():
    assert check_docs.stale_kept_entries() == []
