"""The deterministic virtual-time lane pool (repro.net.lanes)."""

import os
import threading
from types import SimpleNamespace

import pytest

from repro.net import lanes as lanes_module
from repro.net.clock import SimulatedClock
from repro.net.lanes import LaneDeadlock, VirtualLanePool


@pytest.fixture(autouse=True)
def _sanitized(sanitizer_if_requested):
    with sanitizer_if_requested():
        yield


def test_all_items_processed_once():
    clock = SimulatedClock()
    seen = []
    VirtualLanePool(clock, 4).run(range(20), seen.append)
    assert sorted(seen) == list(range(20))


def test_makespan_not_sum_of_lane_times():
    """N lanes each advancing 1s must cost ~ceil(items/N) virtual seconds,
    not items seconds — that is the whole point of concurrency."""
    clock = SimulatedClock()
    start = clock.now()
    VirtualLanePool(clock, 4).run(range(8), lambda _i: clock.advance(1.0))
    assert clock.now() - start == pytest.approx(2.0)


def test_sequential_single_lane_preserves_order():
    clock = SimulatedClock()
    order = []

    def work(item):
        order.append(item)
        clock.advance(0.5)

    VirtualLanePool(clock, 1).run(range(6), work)
    assert order == list(range(6))
    assert clock.now() == pytest.approx(SimulatedClock.PAPER_EPOCH + 3.0)


def test_scheduling_is_deterministic_across_runs():
    def trace(workers):
        clock = SimulatedClock()
        events = []

        def work(item):
            # Uneven costs force real interleaving decisions.
            events.append(("start", item, clock.now()))
            clock.advance(0.1 * (item % 3 + 1))
            events.append(("end", item, clock.now()))

        VirtualLanePool(clock, workers).run(range(12), work)
        return events, clock.now()

    assert trace(3) == trace(3)
    assert trace(5) == trace(5)


def test_smallest_time_lane_runs_first():
    """The lane that has consumed the least virtual time gets the next
    item, so expensive items do not starve the cheap ones behind them."""
    clock = SimulatedClock()
    assignments = {}

    costs = [5.0, 0.1, 0.1, 0.1]

    def work(item):
        lane = clock._lanes.lane_id()
        assignments[item] = lane
        clock.advance(costs[item] if item < len(costs) else 0.1)

    VirtualLanePool(clock, 2).run(range(4), work)
    # Lane 0 eats the 5s item; everything else lands on lane 1.
    assert assignments[0] == 0
    assert [assignments[i] for i in (1, 2, 3)] == [1, 1, 1]


def test_per_lane_clock_views():
    clock = SimulatedClock()
    start = clock.now()
    observed = {}

    def work(item):
        clock.advance(1.0 + item)
        observed[item] = clock.now()

    VirtualLanePool(clock, 2).run(range(2), work)
    # Each lane saw only its own advance, not the other lane's.
    assert observed[0] == pytest.approx(start + 1.0)
    assert observed[1] == pytest.approx(start + 2.0)
    assert clock.now() == pytest.approx(start + 2.0)  # makespan


def test_wait_virtual_coalesces_on_other_lane():
    clock = SimulatedClock()
    flights = {}
    log = []

    def work(item):
        key = "shared"
        flight = flights.get(key)
        if flight is not None and clock.wait_virtual(lambda: flight["done"]):
            log.append(("coalesced", item, clock.now()))
            return
        flight = {"done": False}
        flights[key] = flight
        try:
            log.append(("fetch", item, clock.now()))
            clock.advance(2.0)
        finally:
            flight["done"] = True
            flights.pop(key, None)

    VirtualLanePool(clock, 2).run(range(2), work)
    kinds = sorted(kind for kind, _item, _t in log)
    assert kinds == ["coalesced", "fetch"]
    coalesce_time = next(t for kind, _i, t in log if kind == "coalesced")
    # The waiter resumed no earlier than the fetch completion.
    assert coalesce_time >= SimulatedClock.PAPER_EPOCH + 2.0


def test_wait_virtual_off_lane_returns_false():
    clock = SimulatedClock()
    assert clock.wait_virtual(lambda: True) is False


def test_deadlock_detected():
    clock = SimulatedClock()

    def work(_item):
        clock.wait_virtual(lambda: False)  # can never be satisfied

    with pytest.raises(LaneDeadlock):
        VirtualLanePool(clock, 2).run(range(2), work)


def test_worker_exception_propagates():
    clock = SimulatedClock()

    def work(item):
        clock.advance(0.1)
        if item == 3:
            raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        VirtualLanePool(clock, 2).run(range(8), work)


def test_pool_restores_clock_mode():
    clock = SimulatedClock()
    VirtualLanePool(clock, 2).run(range(2), lambda _i: clock.advance(0.1))
    assert clock._lanes is None
    # Plain advances work again after the pool exits.
    before = clock.now()
    clock.advance(5)
    assert clock.now() == before + 5


def test_timed_wake_fires_when_predicate_never_does():
    """A parked lane with a wake_at is a timer: it resumes at exactly
    that virtual instant even though nothing satisfied its predicate."""
    clock = SimulatedClock()
    start = clock.now()
    resumed = {}

    def work(item):
        if item == 0:
            woke = clock.wait_virtual(lambda: False, wake_at=start + 5.0)
            assert woke is True
            resumed["at"] = clock.now()
        else:
            clock.advance(100.0)

    VirtualLanePool(clock, 2).run(range(2), work)
    assert resumed["at"] == pytest.approx(start + 5.0)
    # The other lane's 100s did not leak into the waiter's rejoin time.
    assert clock.now() == pytest.approx(start + 100.0)


def test_predicate_wake_never_rejoins_later_than_alarm():
    """When the predicate fires at a scheduling point far past wake_at
    (the unblocking lane did the work and then advanced a long way in
    one turn), the waiter still rejoins at its alarm — the wake-up
    would have happened then regardless of when the scheduler looked."""
    clock = SimulatedClock()
    start = clock.now()
    flag = []
    resumed = {}

    def work(item):
        if item == 0:
            clock.wait_virtual(lambda: bool(flag), wake_at=start + 3.0)
            resumed["at"] = clock.now()
            resumed["flag"] = bool(flag)
        else:
            flag.append(1)  # satisfied before any scheduling point...
            clock.advance(12.0)  # ...observed only at this yield

    VirtualLanePool(clock, 2).run(range(2), work)
    assert resumed["flag"] is True
    assert resumed["at"] == pytest.approx(start + 3.0)


def test_timed_waiters_do_not_deadlock():
    """A pool where every lane parks on a dead predicate but carries an
    alarm must drain (each wake-up returns with the predicate false)."""
    clock = SimulatedClock()
    start = clock.now()
    wakes = []

    def work(item):
        clock.wait_virtual(lambda: False, wake_at=start + 1.0 + item)
        wakes.append(clock.now())

    VirtualLanePool(clock, 2).run(range(4), work)
    assert len(wakes) == 4
    assert all(t >= start + 1.0 for t in wakes)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="platform has no thread affinity"
)
def test_lanes_share_one_cpu_of_the_callers_mask():
    clock = SimulatedClock()
    before = os.sched_getaffinity(0)
    masks = []

    def work(_item):
        masks.append(frozenset(os.sched_getaffinity(0)))
        clock.advance(1.0)

    VirtualLanePool(clock, 4).run(range(8), work)
    assert len(set(masks)) == 1  # every lane, the same CPU
    (mask,) = set(masks)
    assert len(mask) == 1 and mask <= before
    assert os.sched_getaffinity(0) == before  # the caller's mask is untouched


def test_pool_runs_where_affinity_is_unavailable(monkeypatch):
    """No ``sched_setaffinity`` (macOS, Windows): same schedule, no pinning."""
    monkeypatch.setattr(lanes_module, "os", SimpleNamespace(getpid=os.getpid))
    clock = SimulatedClock()
    seen = []
    VirtualLanePool(clock, 4).run(range(20), seen.append)
    assert sorted(seen) == list(range(20))


# -- teardown: nothing broadcasts, so every parked lane must be woken by name --

LANE_COUNTS = (2, 8, 32)


class Boom(Exception):
    pass


def run_bounded(pool, items, fn, seconds=60.0):
    """``pool.run`` on a helper thread under a hard wall timeout, so a
    lost wake-up fails the test instead of hanging it; returns what
    ``run`` raised (or None)."""
    raised = []

    def drive():
        try:
            pool.run(items, fn)
        except BaseException as exc:  # handed back to the test thread
            raised.append(exc)

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(seconds)
    assert not driver.is_alive(), "lost wake-up: pool.run() never returned"
    return raised[0] if raised else None


def assert_torn_down_and_reusable(clock, pool, lanes, threads_before):
    assert clock._lanes is None
    assert threading.active_count() == threads_before
    seen = []

    def work(item):
        clock.advance(0.5)
        seen.append(item)

    assert run_bounded(pool, range(3 * lanes), work) is None
    assert sorted(seen) == list(range(3 * lanes))
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_failure_unwinds_lanes_parked_in_advance(lanes):
    """Item 1 raises at t=0.5 with every other lane asleep inside
    ``lane_advance`` at t=1.0.  The last lane turns its abort into a
    second exception on the way out: the first failure still wins."""
    clock = SimulatedClock()
    pool = VirtualLanePool(clock, lanes)
    before = threading.active_count()

    def work(item):
        if item == 1:
            clock.advance(0.5)
            raise Boom("first")
        try:
            for _hop in range(10):
                clock.advance(1.0)
        except BaseException:
            if item == lanes - 1:
                raise RuntimeError("cleanup failed while unwinding")
            raise

    failure = run_bounded(pool, range(lanes), work)
    assert isinstance(failure, Boom) and failure.args == ("first",)
    assert_torn_down_and_reusable(clock, pool, lanes, before)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_failure_unwinds_lanes_parked_on_predicates(lanes):
    """Item 0 raises at t=0.5 with every other lane parked on a
    predicate that never fires — odd lanes forever, even lanes with an
    alarm far in the future."""
    clock = SimulatedClock()
    start = clock.now()
    pool = VirtualLanePool(clock, lanes)
    before = threading.active_count()
    resumed = []

    def work(item):
        if item == 0:
            clock.advance(0.5)
            raise Boom("first")
        clock.wait_virtual(
            lambda: False, wake_at=None if item % 2 else start + 1000.0
        )
        resumed.append(item)

    failure = run_bounded(pool, range(lanes), work)
    assert isinstance(failure, Boom)
    assert resumed == []  # aborted inside the wait, not resumed past it
    assert_torn_down_and_reusable(clock, pool, lanes, before)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("found_by", ["last waiter", "retiring lane"])
def test_deadlock_unwinds_every_parked_lane(lanes, found_by):
    """A deadlock is noticed either by the last lane to park or by a
    lane that retires and leaves only parked lanes behind."""
    clock = SimulatedClock()
    pool = VirtualLanePool(clock, lanes)
    before = threading.active_count()

    def work(item):
        if item == 0 and found_by == "retiring lane":
            clock.advance(0.5)  # everyone else parks meanwhile
            return
        clock.wait_virtual(lambda: False)

    failure = run_bounded(pool, range(lanes), work)
    assert isinstance(failure, LaneDeadlock)
    assert_torn_down_and_reusable(clock, pool, lanes, before)
