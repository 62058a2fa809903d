"""The benchmark scripts' shared revision stamp and the chaos load window."""

import os
import subprocess
import time

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@pytest.fixture
def benchmarks(monkeypatch):
    """Import benchmark scripts as their own directory does."""
    monkeypatch.syspath_prepend(_BENCHMARKS)
    import bench_chaos
    import revision

    return bench_chaos, revision


def git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True,
                   capture_output=True)


def test_revision_stamp_says_when_tracked_files_changed(tmp_path,
                                                        benchmarks):
    _chaos, revision = benchmarks
    assert revision.git_revision(str(tmp_path)) is None  # not a checkout
    git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git(tmp_path, "add", "tracked.txt")
    git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t",
        "commit", "-q", "-m", "one")
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         cwd=tmp_path, capture_output=True,
                         text=True).stdout.strip()
    assert revision.git_revision(str(tmp_path)) == sha
    (tmp_path / "untracked.txt").write_text("new\n")
    assert revision.git_revision(str(tmp_path)) == sha
    (tmp_path / "tracked.txt").write_text("two\n")
    assert revision.git_revision(str(tmp_path)) == f"{sha}-dirty"


def test_chaos_load_ends_when_the_schedule_ends(monkeypatch, benchmarks):
    """A store that never heals keeps the recovery wait going for the
    whole drain timeout, but no client request starts after ``run_s``."""
    bench_chaos, _revision = benchmarks
    import numpy as np

    from repro.service import PlanService
    from repro.service.sharding import ShardedPlanStore

    monkeypatch.setattr(ShardedPlanStore, "missing_replicas",
                        lambda self: 1)
    monkeypatch.setattr(bench_chaos, "DRAIN_TIMEOUT_S", 1.0)
    monkeypatch.setattr(bench_chaos, "NUM_SIGNATURES", 4)
    starts = []
    fetch = PlanService.fetch_plan

    def timed_fetch(self, tenant, *args, **kwargs):
        if tenant != "warm":
            starts.append(time.monotonic())
        return fetch(self, tenant, *args, **kwargs)

    monkeypatch.setattr(PlanService, "fetch_plan", timed_fetch)
    universe = bench_chaos._make_universe(np.random.default_rng(0))
    refs = bench_chaos._references(universe)
    spec = {
        "name": "never_heals",
        "shards": 2,
        "schedule": "0.05 kill shard:shard1\n",
        "probe_at": 0.1,
        "recover_at": 0.15,
        "run_s": 0.4,
        "expected_restarts": 1,
    }
    begin = time.monotonic()
    row = bench_chaos._run_scenario(spec, universe, refs, seed=0)
    assert row["recovery_s"] is None
    assert time.monotonic() - begin >= 0.15 + 1.0  # waited out the drain
    assert row["requests"] == len(starts) > 0
    # Measured from the load's first request, so the scenario's set-up
    # (building the service, warming its signatures) does not count.
    assert max(starts) - min(starts) < spec["run_s"] + 0.3
