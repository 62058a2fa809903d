"""Tests for the unified telemetry subsystem (repro.obs).

Covers the tentpole guarantees: span nesting and thread-safety of the
tracer, histogram quantile accuracy against ``numpy.percentile``,
snapshots surviving the repo's own transports, the disabled-path overhead bound, the
Chrome-trace export, and the migrated attribute
views (transport stats, cache stats, pool counters, KV traffic)
staying shape-identical to their pre-registry forms.
"""

import contextlib
import json
import threading
import time

import numpy as np
import pytest

import repro.obs.trace as obs_trace
from cache_client import plan_batch
from repro.blocks import AttentionSpec, BatchSpec
from repro.core import DCPConfig, DCPPlanner, KVStore, PlanCache
from repro.masks import CausalMask
from repro.obs import MetricsRegistry, NullRegistry, Tracer, span
from repro.obs.bench import plan_fetch_summary
from repro.obs.metrics import _bucket_quantile
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec
from trace_oracles import assert_tracks_nest

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)


def make_planner(metrics=None):
    return DCPPlanner(
        CLUSTER,
        ATTENTION,
        DCPConfig(block_size=64, placement=PlacementConfig(restarts=1)),
        metrics=metrics,
    )


# -- tracer ---------------------------------------------------------------


@contextlib.contextmanager
def recording_to(tracer):
    """Make ``tracer`` the global tracer ``span`` records to."""
    old = obs_trace._TRACER
    obs_trace._TRACER = tracer
    try:
        yield tracer
    finally:
        obs_trace._TRACER = old


def enabled_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestTracer:
    def test_disabled_records_nothing(self):
        with recording_to(Tracer()) as tracer:
            with span("noop", "test"):
                pass
        assert len(tracer) == 0

    def test_span_nesting_parent_links(self):
        with recording_to(enabled_tracer()) as tracer:
            with span("outer", "test"):
                with span("inner", "test"):
                    pass
        spans = {s[0]: s for s in tracer.spans()}
        outer, inner = spans["outer"], spans["inner"]
        assert inner[5] == outer[4]  # inner.parent_id == outer.span_id
        assert outer[5] == 0
        # inner closed first and sits inside outer's interval
        assert outer[6] <= inner[6] <= inner[7] <= outer[7]

    def test_thread_safety_and_per_thread_stacks(self):
        tracer = enabled_tracer()
        spans_per_thread = 50

        def work():
            for i in range(spans_per_thread):
                with span("outer", "test", i=i):
                    with span("inner", "test"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        with recording_to(tracer):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = tracer.spans()
        assert len(spans) == 4 * spans_per_thread * 2
        ids = [s[4] for s in spans]
        assert len(set(ids)) == len(ids)  # unique span ids
        outers = {s[4]: s for s in spans if s[0] == "outer"}
        for s in spans:
            if s[0] != "inner":
                continue
            parent = outers[s[5]]  # parent is an outer span...
            assert parent[3] == s[3]  # ...from the same thread

    def test_disabled_overhead_regression(self):
        """The disabled fast path must stay allocation/lock-free cheap.

        Bounds the *absolute* per-call cost generously (CI machines
        vary) — a lock or allocation sneaking onto the path lands well
        above 2µs/call; the measured cost is ~100ns.
        """
        import sys

        if sys.gettrace() is not None:
            pytest.skip("per-call timing is meaningless under a "
                        "settrace tracer (coverage fallback run)")
        from repro.obs.trace import disable_tracing, tracing_enabled

        was = tracing_enabled()
        disable_tracing()
        try:
            iters = 20000
            start = time.perf_counter()
            for _ in range(iters):
                with span("bench", "test"):
                    pass
            per_call = (time.perf_counter() - start) / iters
        finally:
            if was:  # pragma: no cover - tracing is off in tests
                from repro.obs.trace import enable_tracing

                enable_tracing()
        assert per_call < 2e-6

    def test_chrome_trace_export(self):
        """Slices are in microseconds from the first span's start; the
        measured interval spans the context-managed one, so the two
        share a track."""
        start = time.perf_counter()
        with recording_to(enabled_tracer()) as tracer:
            with span("work", "test", key="value"):
                pass
        tracer.add_span("measured", "test", start, start + 0.5)
        trace = tracer.to_chrome_trace()
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert names == {"work", "measured"}
        measured = next(e for e in slices if e["name"] == "measured")
        work = next(e for e in slices if e["name"] == "work")
        assert measured["ts"] == 0.0
        assert measured["dur"] == pytest.approx(5e5)
        assert work["args"]["key"] == "value"
        assert work["tid"] == measured["tid"]
        assert_tracks_nest(trace)
        json.dumps(trace)  # serializable


# -- metrics --------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("g")
        gauge.set(3.5)
        gauge.set(4.0)
        assert registry.snapshot()["g"] == {
            "type": "gauge", "value": 4.0, "updates": 2
        }
        assert registry.counter("c") is counter  # get-or-create
        with pytest.raises(TypeError):
            registry.gauge("c")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_histogram_quantiles_vs_numpy(self, seed):
        rng = np.random.default_rng(seed)
        # log-uniform latencies spanning the bucket range
        samples = 10.0 ** rng.uniform(-6, 0, size=2000)
        registry = MetricsRegistry()
        hist = registry.histogram("lat_s")
        for value in samples:
            hist.observe(value)
        snap = hist.snapshot()
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            expected = float(np.percentile(samples, q * 100))
            estimate = snap[key]
            # exponential buckets: the estimate must land within one
            # bucket width (factor of 2) of the exact percentile
            assert expected / 2 <= estimate <= expected * 2
        assert snap["count"] == len(samples)
        assert snap["min"] == pytest.approx(samples.min())
        assert snap["max"] == pytest.approx(samples.max())

    def test_histogram_quantiles_clamped_to_extrema(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.010, 0.011, 0.012):
            hist.observe(value)
        snap = hist.snapshot()
        for q in (0.0, 1.0):
            estimate = _bucket_quantile(
                snap["bounds"], snap["counts"], snap["count"],
                snap["min"], snap["max"], q,
            )
            assert 0.010 <= estimate <= 0.012

    def test_cross_process_roundtrip_via_pickle_and_kv(self):
        """Snapshots survive the KV store (which pickles them)
        bit-identically."""
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.histogram("h_s").observe(0.25)
        snap = registry.snapshot()
        store = KVStore()
        store.put("snap", snap)
        assert store.get("snap") == snap

    def test_null_registry_is_inert(self):
        registry = NullRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(1.0)
        assert registry.counter("c") is registry.histogram("h")


# -- instrumentation + migrated views ------------------------------------


class TestInstrumentation:
    def test_planner_stage_metrics(self):
        planner = make_planner()
        batch = BatchSpec.build([256, 128], CausalMask())
        planner.plan_batch(batch)
        snap = planner.metrics.snapshot()
        assert snap["planner.plans"]["value"] == 1
        for name in (
            "planner.plan_s",
            "planner.block_generation_s",
            "planner.placement_s",
            "planner.scheduling_s",
        ):
            assert snap[name]["count"] == 1
        assert snap["planner.plan_s"]["p50"] > 0

    def test_planner_null_registry(self):
        planner = make_planner(metrics=NullRegistry())
        batch = BatchSpec.build([256, 128], CausalMask())
        planner.plan_batch(batch)  # no-op metrics, no error

    def test_cache_stats_view_shapes(self):
        planner = make_planner()
        cache = PlanCache(planner, capacity=4)
        batch = BatchSpec.build([256, 128], CausalMask())
        plan_batch(cache, batch)
        plan_batch(cache, batch)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        snap = cache.metrics.snapshot()
        assert snap["cache.hits"]["value"] == 1

    def test_kvstore_traffic_view_and_latency(self):
        store = KVStore()
        store.put("k", b"payload")
        assert store.get("k") == b"payload"
        snap = store.metrics.snapshot()
        assert snap["kv.bytes_in"]["value"] == 7
        assert snap["kv.bytes_out"]["value"] == 7
        assert snap["kv.get_misses"]["value"] == 0
        assert snap["kv.puts"]["value"] == 1
        assert snap["kv.gets"]["value"] == 1
        assert snap["kv.put_s"]["count"] == 1
        assert snap["kv.get_s"]["count"] == 1
        # A try_get miss is a lookup too: it lands in kv.gets/kv.get_s
        # and is broken out in kv.get_misses (regression: the early
        # return used to skip all accounting).
        assert store.try_get("absent") is None
        snap = store.metrics.snapshot()
        assert snap["kv.gets"]["value"] == 2
        assert snap["kv.get_misses"]["value"] == 1
        assert snap["kv.get_s"]["count"] == 2

    def test_pipeline_plan_fetch_split(self):
        from repro.pipeline import PipelineRunner, StreamingOverlapPipeline

        planner = make_planner()
        cache = PlanCache(planner, capacity=8)
        batches = [
            BatchSpec.build([256, 128], CausalMask()),
            BatchSpec.build([192, 64], CausalMask()),
        ]
        pipeline = StreamingOverlapPipeline(
            batches * 2, planner, lookahead=1, max_workers=1, cache=cache,
        )
        runner = PipelineRunner(pipeline, execute=lambda local, plan: None)
        runner.run()
        snap = pipeline.metrics.snapshot()
        assert snap["pipeline.iterations"]["value"] == 4
        fetch = plan_fetch_summary(snap)
        assert fetch["hit"]["count"] == 2  # cycle 2 served by the cache
        assert fetch["dispatch"]["count"] == 2
        assert fetch["dispatch"]["p50_s"] >= 0.0

    def test_shared_registry_across_components(self):
        registry = MetricsRegistry()
        planner = make_planner(metrics=registry)
        cache = PlanCache(planner, capacity=4, metrics=registry)
        store = KVStore(metrics=registry)
        batch = BatchSpec.build([256, 128], CausalMask())
        store.put("plan", plan_batch(cache, batch))
        names = registry.snapshot()
        assert "planner.plan_s" in names
        assert "cache.misses" in names
        assert "kv.puts" in names

    def test_telemetry_round_trips_the_pipelines_plans(self, monkeypatch):
        """The telemetry workload ships the plans its pipeline cached
        through the KV store: one put and one hit per batch, every
        surface on one registry, and no metric from a transport that
        no longer exists."""
        from repro.obs import bench
        from repro.obs.bench import REQUIRED_METRICS, collect_telemetry

        monkeypatch.setattr(bench, "NUM_BATCHES", 3)
        report = collect_telemetry(smoke=True)
        snap = report["snapshot"]
        assert report["iterations"] == 6
        assert snap["kv.puts"]["value"] == 3
        assert snap["kv.gets"]["value"] == 3
        assert snap["kv.get_misses"]["value"] == 0
        assert snap["kv.bytes_in"]["value"] > 0
        assert set(REQUIRED_METRICS) <= set(snap)
        assert not [name for name in snap if name.startswith("transport.")]
        assert report["plan_fetch"]["hit"]["count"] == 3
        assert report["trace"]["traceEvents"]
        assert_tracks_nest(report["trace"])
