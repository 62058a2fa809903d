"""Tests for the chaos harness (repro.faults) and its injection at the
sharded plan store."""

import time

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ScheduleRunner,
    parse_schedule,
)
from repro.service import ShardedPlanStore
from repro.service.errors import ShardUnavailable


# -- injector -----------------------------------------------------------------


class TestFaultInjector:
    def test_kill_restart_generation(self):
        injector = FaultInjector()
        assert not injector.is_killed("shard:a")
        injector.kill("shard:a")
        assert injector.is_killed("shard:a")
        assert injector.restart_count("shard:a") == 0
        injector.restart("shard:a")
        assert not injector.is_killed("shard:a")
        assert injector.restart_count("shard:a") == 1
        # Restarting a live target is a no-op generation-wise.
        injector.restart("shard:a")
        assert injector.restart_count("shard:a") == 1

    def test_slow_is_sustained_until_cleared(self):
        injector = FaultInjector()
        injector.slow("shard:a", 0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        injector.kill("shard:a")
        injector.clear("shard:a")
        assert injector.delay_s("shard:a") == 0.0
        assert injector.is_killed("shard:a")  # clear lifts faults, not kill

    def test_faults_are_per_target(self):
        injector = FaultInjector()
        injector.kill("shard:a")
        injector.slow("shard:b", 0.02)
        assert injector.is_killed("shard:a")
        assert injector.delay_s("shard:a") == 0.0
        assert not injector.is_killed("shard:b")
        assert injector.delay_s("shard:b") == pytest.approx(0.02)
        assert injector.restart_count("shard:a") == 0
        assert not injector.is_killed("shard:c")


# -- schedule DSL -------------------------------------------------------------


class TestFaultSchedule:
    def test_parse(self):
        text = """
        # warm-up, then kill the primary
        0.2 kill shard:shard1
        0.4 slow shard:shard2 0.01
        1.0 restart shard:shard1
        """
        schedule = parse_schedule(text)
        assert schedule.events == [
            FaultEvent(0.2, "kill", "shard:shard1"),
            FaultEvent(0.4, "slow", "shard:shard2", 0.01),
            FaultEvent(1.0, "restart", "shard:shard1"),
        ]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_schedule("nonsense")
        with pytest.raises(ValueError, match="bad time"):
            parse_schedule("abc kill shard:a")
        with pytest.raises(ValueError, match="needs an argument"):
            parse_schedule("0.1 slow shard:a")
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_schedule("0.1 explode shard:a")

    def test_events_apply_in_time_order(self):
        schedule = FaultSchedule([
            FaultEvent(0.5, "restart", "shard:a"),
            FaultEvent(0.2, "kill", "shard:a"),
        ])
        injector = FaultInjector()
        schedule.events[0].apply(injector)
        assert injector.is_killed("shard:a")
        schedule.events[1].apply(injector)
        assert not injector.is_killed("shard:a")
        assert injector.restart_count("shard:a") == 1

    def test_runner_applies_in_wall_time(self):
        schedule = parse_schedule(
            "0.0 kill shard:a\n0.05 restart shard:a"
        )
        injector = FaultInjector()
        with ScheduleRunner(schedule, injector) as runner:
            runner.join(timeout=5.0)
        # Both events applied: killed, then restarted.
        assert not injector.is_killed("shard:a")
        assert injector.restart_count("shard:a") == 1


# -- injection at the sharded store -------------------------------------------


def single_owner_store(injector):
    """One shard, one copy: every op lands on ``shard0``."""
    return ShardedPlanStore(shards=1, replication=1,
                            fault_injector=injector)


class TestShardFaultInjection:
    def test_kill_fails_ops_and_restart_wipes(self):
        injector = FaultInjector()
        store = single_owner_store(injector)
        store.put("k", b"v")
        injector.kill("shard:shard0")
        with pytest.raises(ShardUnavailable):
            store.put("k2", b"v2")
        assert store.try_get("k") is None
        injector.restart("shard:shard0")
        # A restart loses host memory: the old key is gone, and the
        # shard takes writes again.
        assert store.try_get("k") is None
        store.put("k2", b"v2")
        assert store.try_get("k2") == b"v2"

    def test_slow_stalls_every_op(self):
        injector = FaultInjector()
        store = single_owner_store(injector)
        injector.slow("shard:shard0", 0.03)
        start = time.monotonic()
        store.put("k", b"v")
        assert store.try_get("k") == b"v"
        assert time.monotonic() - start >= 0.06  # two ops, two stalls

    def test_faults_stay_on_their_target(self):
        injector = FaultInjector()
        store = ShardedPlanStore(shards=2, fault_injector=injector)
        keys = {f"sig/{i:04x}": store.owners_for(f"sig/{i:04x}")[0]
                for i in range(32)}
        assert set(keys.values()) == {"shard0", "shard1"}
        for key in keys:
            store.put(key, key.encode())
        injector.kill("shard:shard1")
        for key, owner in keys.items():
            expected = key.encode() if owner == "shard0" else None
            assert store.try_get(key) == expected

