"""The lane pool against a single-threaded model of its own rule.

Random lane scripts (advance / set a flag / wait on a flag, with and
without an alarm) run once on :class:`VirtualLanePool` — real threads,
real batons — and once on :func:`tests.lane_oracle.simulate`, one loop
over generators.  Everything the schedule determines must agree: the
order operations executed in and the virtual time each saw, every
lane's final clock, the makespan, the number of token switches, and
whether the run deadlocked.  Beside it, the count gates: the pool
issues exactly one OS wake-up per switch, and the 1k-domain scan makes
exactly the switches it made before the hand-off was rebuilt.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import lanes as lanes_module
from repro.net.clock import SimulatedClock
from repro.net.lanes import LaneDeadlock, VirtualLanePool
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner
from repro.scan.wild import WildInternet

from .lane_oracle import simulate

BASE = float(SimulatedClock.PAPER_EPOCH)
#: Binary fractions, so equal sums are exactly equal and ties are common.
STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
FLAGS = st.integers(0, 3)
OPS = st.one_of(
    st.tuples(st.just("advance"), STEPS),
    st.tuples(st.just("set"), FLAGS),
    st.tuples(st.just("wait"), FLAGS, st.none() | STEPS),
)
SCRIPTS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=40)


def player(scripts, flags: set, log: list):
    """``play(item, now)`` for :func:`simulate`: item ``i`` runs
    ``scripts[i]``, yielding its scheduling points and logging every
    operation with the lane time it completed at."""

    def play(item, now):
        for step, op in enumerate(scripts[item]):
            if op[0] == "advance":
                yield op
            elif op[0] == "set":
                flags.add(op[1])
            else:
                _kind, flag, alarm = op
                yield (
                    "wait",
                    lambda flag=flag: flag in flags,
                    None if alarm is None else now() + alarm,
                )
            log.append((item, step, now()))

    return play


def run_pool(workers: int, scripts):
    clock = SimulatedClock(BASE)
    flags: set = set()
    log: list = []
    play = player(scripts, flags, log)

    def work(item):
        for point in play(item, clock.now):
            if point[0] == "advance":
                clock.advance(point[1])
            else:
                clock.wait_virtual(point[1], point[2])

    pool = VirtualLanePool(clock, workers)
    deadlocked = False
    try:
        pool.run(range(len(scripts)), work)
    except LaneDeadlock:
        deadlocked = True
    return log, pool._times, clock.now(), pool.switches, deadlocked


def run_model(workers: int, scripts):
    flags: set = set()
    log: list = []
    times, switches, deadlocked = simulate(
        BASE, workers, range(len(scripts)), player(scripts, flags, log)
    )
    return log, times, max(times), switches, deadlocked


@settings(max_examples=150, deadline=None)
@given(workers=st.integers(1, 32), scripts=SCRIPTS)
def test_pool_schedules_like_the_model(sanitizer_if_requested, workers, scripts):
    with sanitizer_if_requested():
        assert run_pool(workers, scripts) == run_model(workers, scripts)


def test_model_agrees_on_a_known_schedule(sanitizer_if_requested):
    """Not vacuous: a script with a coalescing wait, an alarm and a tie,
    checked against hand-computed values as well as against the pool."""
    scripts = [
        [("advance", 2.0), ("set", 0)],  # the fetch
        [("wait", 0, None), ("advance", 0.5)],  # rejoins at the fetcher's 2.0
        [("wait", 1, 1.0), ("advance", 0.25)],  # nobody sets 1: alarm at 1.0
    ]
    with sanitizer_if_requested():
        log, times, makespan, switches, deadlocked = run_pool(3, scripts)
    assert (log, times, makespan, switches, deadlocked) == run_model(3, scripts)
    assert times == [BASE + 2.0, BASE + 2.5, BASE + 1.25]
    assert [entry[:2] for entry in log] == [
        (2, 0), (2, 1), (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert makespan == BASE + 2.5 and not deadlocked


class CountingBaton:
    """A baton that counts the wake-ups issued through it."""

    wakeups = 0

    def __init__(self):
        self._lock = threading.Lock()

    def acquire(self):
        return self._lock.acquire()

    def release(self):
        CountingBaton.wakeups += 1
        self._lock.release()


@pytest.fixture
def counted_batons(monkeypatch):
    monkeypatch.setattr(CountingBaton, "wakeups", 0)
    monkeypatch.setattr(
        lanes_module,
        "threading",
        SimpleNamespace(
            Lock=CountingBaton, Thread=threading.Thread, local=threading.local
        ),
    )
    return CountingBaton


@pytest.mark.parametrize("workers", [1, 2, 8, 32])
def test_one_wakeup_per_switch(counted_batons, sanitizer_if_requested, workers):
    """Zero spurious wake-ups.  Every baton release hands the token to
    another lane, which is what ``switches`` counts (the first release
    starts lane 0; a retiring lane's release is its successor's
    switch), so the two are equal — the lanes a run starts add
    nothing, because a lane that keeps the token touches no baton."""
    clock = SimulatedClock()
    pool = VirtualLanePool(clock, workers)
    costs = [0.25, 1.0, 0.5, 0.0, 2.0]

    def work(item):
        for hop in range(3):
            clock.advance(costs[(item + hop) % len(costs)])

    with sanitizer_if_requested():
        pool.run(range(100), work)
    assert pool.tasks_run == 100
    assert counted_batons.wakeups == pool.switches
    if workers == 1:
        assert pool.switches == 1  # started once, then never parked again


@pytest.fixture
def recorded_pools(monkeypatch):
    pools = []
    original = VirtualLanePool.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        pools.append(self)

    monkeypatch.setattr(VirtualLanePool, "__init__", recording)
    return pools


def test_thousand_domain_scan_switch_counts(counted_batons, recorded_pools):
    """``(tasks_run, switches)`` of the four phase pools of the seeded
    1k-domain, 8-lane scan, as measured at the parent commit (condition-
    variable hand-off): the rebuilt hand-off changes how a switch wakes
    a lane, never when one happens."""
    population = generate_population(population_config_for(1000, seed=20230524))
    result = WildScanner(WildInternet(population)).scan(workers=8, use_lanes=True)
    assert [(pool.tasks_run, pool.switches) for pool in recorded_pools] == [
        (960, 4501), (32, 151), (32, 72), (8, 26),
    ]
    assert result.queries_sent == 4711
    assert counted_batons.wakeups == sum(pool.switches for pool in recorded_pools)
