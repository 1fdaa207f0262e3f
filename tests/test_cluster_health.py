"""Unit tests for the shard health monitor (PR 4 breaker semantics
lifted to shard granularity): HEALTHY -> SUSPECT -> EJECTED edges,
virtual-time cooldown and the single half-open probe slot."""

from __future__ import annotations

import pytest

from repro.cluster.health import (
    ShardHealthConfig,
    ShardHealthMonitor,
    ShardHealthState,
)
from repro.net.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock()


def monitor(clock, shards=3, **kwargs):
    return ShardHealthMonitor(clock, shards, ShardHealthConfig(**kwargs))


class TestStateMachine:
    def test_starts_healthy(self, clock):
        mon = monitor(clock)
        assert all(
            mon.state_of(i) is ShardHealthState.HEALTHY for i in range(3)
        )
        assert mon.ejected_indices() == ()
        assert mon.healthy_indices() == (0, 1, 2)

    def test_first_failure_moves_to_suspect(self, clock):
        mon = monitor(clock, failure_threshold=3)
        assert mon.on_failure(0) is False
        assert mon.state_of(0) is ShardHealthState.SUSPECT
        assert mon.state_of(1) is ShardHealthState.HEALTHY

    def test_success_clears_the_failure_run(self, clock):
        mon = monitor(clock, failure_threshold=3)
        mon.on_failure(0)
        mon.on_failure(0)
        assert mon.on_success(0) is False  # not a rejoin edge
        assert mon.state_of(0) is ShardHealthState.HEALTHY
        # The run restarts from zero: two more failures do not eject.
        mon.on_failure(0)
        mon.on_failure(0)
        assert mon.state_of(0) is ShardHealthState.SUSPECT

    def test_threshold_consecutive_failures_eject(self, clock):
        mon = monitor(clock, failure_threshold=3)
        assert mon.on_failure(0) is False
        assert mon.on_failure(0) is False
        assert mon.on_failure(0) is True  # the ejection edge
        assert mon.state_of(0) is ShardHealthState.EJECTED
        assert mon.ejected_indices() == (0,)
        assert mon.healthy_indices() == (1, 2)
        assert mon.stats.ejections == 1
        assert mon.ejections_of(0) == 1

    def test_ejection_edge_fires_once(self, clock):
        mon = monitor(clock, failure_threshold=1)
        assert mon.on_failure(0) is True
        # Further failures while EJECTED are stragglers (no probe in
        # flight): they restart the cooldown but are not new ejection
        # edges and not probe failures.
        assert mon.on_failure(0) is False
        assert mon.stats.ejections == 1
        assert mon.stats.probe_failures == 0

    def test_straggler_success_does_not_rejoin(self, clock):
        """A dispatch that left before the ejection and completed after
        it must not un-eject the shard: only the sanctioned half-open
        probe may."""
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        assert mon.on_success(0) is False
        assert mon.state_of(0) is ShardHealthState.EJECTED
        assert mon.stats.recoveries == 0
        assert mon.stats.probe_successes == 0

    def test_straggler_failure_extends_the_cooldown(self, clock):
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        clock.advance(20.0)
        mon.on_failure(0)  # straggler: fresh evidence, fresh cooldown
        clock.advance(10.0)  # original cooldown would have lapsed here
        assert mon.allow_probe(0) is False
        clock.advance(20.0)
        assert mon.allow_probe(0) is True


class TestProbe:
    def test_no_probe_before_cooldown(self, clock):
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        assert mon.allow_probe(0) is False
        clock.advance(29.9)
        assert mon.allow_probe(0) is False

    def test_single_probe_slot_per_window(self, clock):
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        clock.advance(30.0)
        assert mon.allow_probe(0) is True
        assert mon.allow_probe(0) is False  # slot taken
        assert mon.stats.probes == 1

    def test_probe_success_rejoins(self, clock):
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        clock.advance(30.0)
        assert mon.allow_probe(0)
        assert mon.on_success(0) is True  # the rejoin edge
        assert mon.state_of(0) is ShardHealthState.HEALTHY
        assert mon.stats.recoveries == 1
        assert mon.stats.probe_successes == 1

    def test_probe_failure_restarts_cooldown(self, clock):
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        clock.advance(30.0)
        assert mon.allow_probe(0)
        assert mon.on_failure(0) is False
        assert mon.state_of(0) is ShardHealthState.EJECTED
        assert mon.stats.probe_failures == 1
        # A fresh cooldown: no probe until another full window passes.
        clock.advance(15.0)
        assert mon.allow_probe(0) is False
        clock.advance(15.0)
        assert mon.allow_probe(0) is True

    def test_lost_probe_expires_after_one_cooldown(self, clock):
        """A probe whose outcome never came back frees the slot."""
        mon = monitor(clock, failure_threshold=1, cooldown=30.0)
        mon.on_failure(0)
        clock.advance(30.0)
        assert mon.allow_probe(0)
        clock.advance(30.0)  # no on_success/on_failure arrived
        assert mon.allow_probe(0) is True

    def test_healthy_shard_never_probes(self, clock):
        mon = monitor(clock)
        assert mon.allow_probe(0) is False


class TestSnapshot:
    def test_snapshot_is_json_ready(self, clock):
        mon = monitor(clock, failure_threshold=1)
        mon.on_failure(2)
        snap = mon.snapshot()
        assert snap["states"] == ["healthy", "healthy", "ejected"]
        assert snap["ejections"] == [0, 0, 1]
        assert snap["consecutive_failures"][2] >= 1
