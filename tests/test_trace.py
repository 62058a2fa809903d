"""Tests for the timeline/trace export (repro.sim.trace) and the one
Chrome-trace writer it shares with the tracer
(repro.obs.trace.chrome_trace)."""

import json
import os

import pytest

from repro.baselines import RingAttentionPlanner
from repro.bench import PAPER_MASKS, BenchScale, make_batches
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask
from repro.obs.trace import chrome_trace
from repro.placement import PlacementConfig
from repro.sim import (
    ClusterSpec,
    ascii_gantt,
    simulate_plan,
    to_chrome_trace,
    write_chrome_trace,
)
from trace_oracles import assert_tracks_nest, partial_overlaps

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


@pytest.fixture(scope="module")
def result():
    batch = BatchSpec.build([512, 128], CausalMask())
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    block_set = generate_blocks(batch, spec, block_size=64)
    plan = RingAttentionPlanner().plan(block_set, CLUSTER)
    return simulate_plan(plan)


class TestEvents:
    def test_events_recorded_per_device(self, result):
        for timing in result.devices.values():
            assert timing.events, "every device should log events"

    def test_event_lanes_valid(self, result):
        lanes = {
            lane
            for timing in result.devices.values()
            for _, lane, _, _ in timing.events
        }
        assert lanes <= {"compute", "comm", "stall"}
        assert "compute" in lanes
        assert "comm" in lanes

    def test_events_within_iteration(self, result):
        horizon = result.iteration_time + 1e-9
        for timing in result.devices.values():
            for _, _, start, end in timing.events:
                assert 0.0 <= start <= end <= horizon

    def test_events_sorted(self, result):
        for timing in result.devices.values():
            starts = [start for _, _, start, _ in timing.events]
            assert starts == sorted(starts)

    def test_compute_events_match_intervals(self, result):
        for timing in result.devices.values():
            compute_events = [
                (start, end)
                for _, lane, start, end in timing.events
                if lane == "compute"
            ]
            assert sorted(compute_events) == sorted(timing.compute_intervals)


class TestChromeTrace:
    def test_structure(self, result):
        trace = to_chrome_trace(result)
        assert "traceEvents" in trace
        names = {e["name"] for e in trace["traceEvents"]}
        assert "process_name" in names

    def test_json_serializable(self, result):
        json.dumps(to_chrome_trace(result))

    def test_one_process_per_device(self, result):
        trace = to_chrome_trace(result)
        pids = {
            e["pid"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        }
        assert pids == set(result.devices)

    def test_durations_non_negative(self, result):
        for event in to_chrome_trace(result)["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_time_scale(self, result):
        """Every simulated event is one slice of its device's process,
        its seconds in microseconds."""
        slices = [e for e in to_chrome_trace(result)["traceEvents"]
                  if e["ph"] == "X"]
        assert sorted(
            (e["pid"], e["name"], e["cat"], e["ts"], e["dur"]) for e in slices
        ) == sorted(
            (device, name, lane, start * 1e6, max(end - start, 0.0) * 1e6)
            for device, timing in result.devices.items()
            for name, lane, start, end in timing.events
        )

    def test_write_round_trip(self, result, tmp_path):
        path = os.path.join(tmp_path, "trace.json")
        write_chrome_trace(result, path)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"]


def dcp_causal_plans():
    """The first three seed-0 LongAlign causal batches of 8192 tokens,
    512-token blocks, planned on 2x4 devices."""
    scale = BenchScale.sweep(token_budget=8192, block_size=512, num_batches=3)
    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    return [
        planner.plan_batch(batch)
        for batch in make_batches("longalign", scale, PAPER_MASKS["causal"]())
    ]


class TestTracksNest:
    def test_helper_finds_a_partial_overlap(self):
        def slice_(ts, dur, tid=0):
            return {"name": "s", "ph": "X", "pid": 0, "tid": tid,
                    "ts": ts, "dur": dur}

        nested = [slice_(0, 10), slice_(2, 3), slice_(5, 5), slice_(10, 1)]
        assert partial_overlaps(nested) == []
        crossing = [slice_(0, 10), slice_(5, 10)]
        assert len(partial_overlaps(crossing)) == 1
        # Another thread's slices never conflict.
        assert partial_overlaps([slice_(0, 10), slice_(5, 10, tid=1)]) == []

    def test_writer_first_fits_partial_overlaps(self):
        lane = [("a", "x", 0.0, 2.0, None), ("b", "x", 1.0, 3.0, None),
                ("c", "x", 1.5, 1.8, None), ("d", "x", 2.5, 2.6, None)]
        trace = chrome_trace([("p", [("lane", lane)])])
        assert_tracks_nest(trace)
        threads = {e["tid"]: e["args"]["name"] for e in trace["traceEvents"]
                   if e["name"] == "thread_name"}
        assert threads == {0: "lane", 1: "lane #2"}
        tids = {e["name"]: e["tid"] for e in trace["traceEvents"]
                if e["ph"] == "X"}
        assert tids == {"a": 0, "c": 0, "d": 0, "b": 1}

    def test_ring_plan_nests(self, result):
        assert_tracks_nest(to_chrome_trace(result))

    def test_dcp_plans_nest(self):
        """Concurrent transfers of one device go onto extra comm
        tracks; every one of the 200-odd transfers stays in the trace."""
        for plan in dcp_causal_plans():
            result = simulate_plan(plan)
            trace = to_chrome_trace(result)
            assert_tracks_nest(trace)
            slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
            assert len(slices) == sum(
                len(timing.events) for timing in result.devices.values()
            )
            comm_tracks = {
                (e["pid"], e["tid"]) for e in slices if e["cat"] == "comm"
            }
            assert len(comm_tracks) > len(result.devices)


class TestAsciiGantt:
    def test_one_line_per_device_plus_header(self, result):
        chart = ascii_gantt(result)
        assert len(chart.splitlines()) == len(result.devices) + 1

    def test_width_respected(self, result):
        chart = ascii_gantt(result, width=40)
        for line in chart.splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == 40

    def test_contains_compute_and_comm(self, result):
        chart = ascii_gantt(result)
        assert "#" in chart
        assert "=" in chart or "X" in chart

    def test_dcp_plan_renders(self):
        batch = BatchSpec.build([256, 64], CausalMask())
        spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        block_set = generate_blocks(batch, spec, block_size=32)
        planner = DCPPlanner(
            CLUSTER, attention=spec, config=DCPConfig(
                block_size=32, placement=PlacementConfig(restarts=1)
            )
        )
        plan = planner.plan(block_set, CLUSTER)
        chart = ascii_gantt(simulate_plan(plan))
        assert "busy" in chart
