"""Tests for the timeline/trace export (repro.sim.trace)."""

import json
import os

import pytest

from repro.baselines import RingAttentionPlanner
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask
from repro.placement import PlacementConfig
from repro.sim import (
    ClusterSpec,
    ascii_gantt,
    simulate_plan,
    to_chrome_trace,
    write_chrome_trace,
)

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
        slices = [e for e in to_chrome_trace(result)["traceEvents"]
                  if e["ph"] == "X"]
        events = [event for _device, timing in sorted(result.devices.items())
                  for event in timing.events]
        assert len(slices) == len(events)
        for event, (_name, _lane, start, end) in zip(slices, events):
            assert event["ts"] == pytest.approx(start * 1e6)
            assert event["dur"] == pytest.approx(max(end - start, 0.0) * 1e6)

    def test_write_round_trip(self, result, tmp_path):
        path = os.path.join(tmp_path, "trace.json")
        write_chrome_trace(result, path)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"]


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
