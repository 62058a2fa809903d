"""Tests for the chaos harness (repro.faults) and failure detection."""

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
from repro.service.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ShardHealth,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


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

    def test_slow_is_sustained_hang_is_one_shot(self):
        injector = FaultInjector()
        injector.slow("shard:a", 0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        injector.hang("shard:a", 0.5)
        assert injector.delay_s("shard:a") == pytest.approx(0.51)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        injector.clear("shard:a")
        assert injector.delay_s("shard:a") == 0.0

    def test_drop_decisions_are_seed_deterministic(self):
        def decisions(seed):
            injector = FaultInjector(seed=seed)
            injector.drop("shard:a", 0.5)
            return [injector.should_drop("shard:a") for _ in range(200)]

        first = decisions(7)
        assert first == decisions(7)
        assert any(first) and not all(first)
        assert first != decisions(8)

    def test_drop_rate_validated_and_clear_keeps_kill(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.drop("shard:a", 1.5)
        injector.kill("shard:a")
        injector.drop("shard:a", 1.0)
        injector.clear("shard:a")
        assert not injector.should_drop("shard:a")
        assert injector.is_killed("shard:a")  # clear lifts faults, not kill

    def test_log_and_snapshot(self):
        injector = FaultInjector()
        injector.kill("shard:a")
        injector.slow("shard:b", 0.02)
        assert ("kill", "shard:a") in injector.log
        snap = injector.snapshot()
        assert snap["shard:a"]["killed"]
        assert snap["shard:b"]["delay_s"] == pytest.approx(0.02)


# -- schedule DSL -------------------------------------------------------------


class TestFaultSchedule:
    def test_parse_round_trip(self):
        text = """
        # warm-up, then kill the primary
        0.2 kill shard:shard1
        0.4 slow shard:shard2 0.01
        1.0 restart shard:shard1
        """
        schedule = parse_schedule(text)
        assert [e.action for e in schedule.events] == \
            ["kill", "slow", "restart"]
        assert schedule.duration_s == pytest.approx(1.0)
        reparsed = parse_schedule(schedule.to_text())
        assert reparsed.events == schedule.events

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_schedule("nonsense")
        with pytest.raises(ValueError, match="bad time"):
            parse_schedule("abc kill shard:a")
        with pytest.raises(ValueError, match="needs an argument"):
            parse_schedule("0.1 slow shard:a")
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_schedule("0.1 explode shard:a")

    def test_apply_through_is_deterministic_stepping(self):
        schedule = FaultSchedule([
            FaultEvent(0.2, "kill", "shard:a"),
            FaultEvent(0.5, "restart", "shard:a"),
        ])
        injector = FaultInjector()
        assert schedule.apply_through(0.1, injector) == 0
        assert schedule.apply_through(0.3, injector) == 1
        assert injector.is_killed("shard:a")
        assert schedule.apply_through(0.3, injector) == 0  # no re-apply
        assert schedule.apply_through(1.0, injector) == 1
        assert not injector.is_killed("shard:a")
        schedule.reset()
        assert schedule.apply_through(1.0, FaultInjector()) == 2

    def test_runner_applies_in_wall_time(self):
        schedule = parse_schedule(
            "0.0 kill shard:a\n0.05 restart shard:a"
        )
        injector = FaultInjector()
        with ScheduleRunner(schedule, injector) as runner:
            runner.join(timeout=5.0)
        assert not injector.is_killed("shard:a")
        assert injector.restart_count("shard:a") == 1
        assert len(runner.applied) == 2


# -- injection at the sharded store -------------------------------------------


def single_owner_store(injector):
    """One shard, one copy: every op lands on ``shard0``."""
    return ShardedPlanStore(shards=1, replication=1,
                            fault_injector=injector,
                            breaker_reset_s=0.01)


class TestShardFaultInjection:
    def test_kill_fails_ops_and_restart_wipes(self):
        injector = FaultInjector()
        store = single_owner_store(injector)
        store.put("k", b"v")
        injector.kill("shard:shard0")
        with pytest.raises(ShardUnavailable):
            store.put("k2", b"v2")
        assert store.try_get("k") is None
        assert not store.contains("k")
        injector.restart("shard:shard0")
        time.sleep(0.02)  # let the breaker's reset window elapse
        # A restart loses host memory: the old key is gone, and the
        # shard takes writes again.
        assert store.try_get("k") is None
        store.put("k2", b"v2")
        assert store.try_get("k2") == b"v2"

    def test_drop_raises_without_applying(self):
        injector = FaultInjector()
        store = single_owner_store(injector)
        injector.drop("shard:shard0", 1.0)
        with pytest.raises(ShardUnavailable, match="all_replicas_down"):
            store.put("k", b"v")
        assert store.metrics.counter(
            "service.replica_write_failures"
        ).value == 1
        injector.clear("shard:shard0")
        assert store.store("shard0").try_get("k") is None  # never landed

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
        assert store.health.allow("shard0")


# -- circuit breakers + health ------------------------------------------------


class TestCircuitBreaker:
    def test_threshold_opens_and_reset_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=1.0,
                                 clock=clock)
        assert breaker.state == CLOSED
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # concurrent callers still blocked
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_failed_probe_reopens_with_fresh_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert not breaker.allow()  # timer restarted at probe failure
        clock.advance(0.5)
        assert breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 2 consecutive

    def test_trip_forces_open(self):
        breaker = CircuitBreaker()
        breaker.trip()
        assert breaker.state == OPEN
        assert breaker.opened_count == 1


class TestShardHealth:
    def test_routes_and_counts_fast_fails(self):
        clock = FakeClock()
        health = ShardHealth(failure_threshold=2, reset_after_s=1.0,
                             clock=clock)
        assert health.allow("shard0")
        health.record_failure("shard0")
        health.record_failure("shard0")
        assert not health.allow("shard0")
        assert health.metrics.counter("health.fast_fails").value == 1
        assert health.metrics.counter("health.breaker_opened").value == 1
        assert health.snapshot()["shard0"] == OPEN

    def test_heartbeat_liveness(self):
        clock = FakeClock()
        health = ShardHealth(heartbeat_timeout_s=1.0, clock=clock)
        assert health.is_alive("worker:0")  # never heartbeat: presumed up
        health.heartbeat("worker:0")
        clock.advance(0.5)
        assert health.is_alive("worker:0")
        clock.advance(1.0)
        assert not health.is_alive("worker:0")  # silent too long: hung
        assert health.alive(["worker:0", "worker:1"]) == ["worker:1"]
