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

    def test_slow_is_sustained_until_cleared(self):
        injector = FaultInjector()
        injector.slow("shard:a", 0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        assert injector.delay_s("shard:a") == pytest.approx(0.01)
        injector.kill("shard:a")
        injector.clear("shard:a")
        assert injector.delay_s("shard:a") == 0.0
        assert injector.is_killed("shard:a")  # clear lifts faults, not kill

    def test_log(self):
        injector = FaultInjector()
        injector.kill("shard:a")
        injector.slow("shard:b", 0.02)
        assert injector.log == [("kill", "shard:a"), ("slow", "shard:b")]


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
        injector.restart("shard:shard0")
        time.sleep(0.02)  # let the breaker's reset window elapse
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
        assert store.health.allow("shard0")


# -- circuit breakers + health ------------------------------------------------


def state_of(breaker: CircuitBreaker) -> str:
    """The breaker's state as its next caller sees it."""
    with breaker._lock:
        breaker._maybe_half_open()
        return breaker._state


class TestCircuitBreaker:
    def test_threshold_opens_and_reset_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=1.0,
                                 clock=clock)
        assert state_of(breaker) == CLOSED
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert state_of(breaker) == OPEN
        assert not breaker.allow()
        clock.advance(1.0)
        assert state_of(breaker) == HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # concurrent callers still blocked
        breaker.record_success()
        assert state_of(breaker) == CLOSED

    def test_failed_probe_reopens_with_fresh_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert state_of(breaker) == OPEN
        clock.advance(0.5)
        assert not breaker.allow()  # timer restarted at probe failure
        clock.advance(0.5)
        assert breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert state_of(breaker) == CLOSED  # never 2 consecutive


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
        assert state_of(health.breaker("shard0")) == OPEN
