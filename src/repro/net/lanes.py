"""Deterministic concurrency lanes over the virtual clock.

The fabric is a synchronous, in-process packet switch: a send *is* the
round trip, and latency is modelled by advancing one
:class:`~repro.net.clock.SimulatedClock`.  Real measurement tools (zdns,
the paper's Section 4.1 pipeline) keep thousands of resolutions in
flight; to model that without giving up determinism, a
:class:`VirtualLanePool` runs N worker *lanes* that take strict turns:

* exactly one lane executes at any moment (a token handed from lane to
  lane), so every shared structure — caches, zone maps, seeded RNGs —
  is mutated race-free without per-structure locks;
* each lane owns a *lane clock*: clock reads and advances inside a lane
  apply to that lane's virtual time only, so lane A waiting out a 2 s
  timeout does not stall lane B's 10 ms round trip;
* the scheduler always resumes the runnable lane with the smallest
  virtual time (ties broken by lane id), which makes the interleaving a
  pure function of the workload — OS thread scheduling cannot perturb
  it, so seeded runs replay byte-for-byte for any worker count;
* a lane may block on a predicate (``wait_until``) — the single-flight
  query coalescing in the recursive resolver uses this to park a lane
  until another lane's identical upstream fetch completes.  A blocked
  lane rejoins at ``max(own time, unblocking lane's time)``: the data it
  waited for did not exist earlier than that;
* a predicate wait may carry a *timed wake-up* (``wake_at``): the parked
  lane becomes runnable again at that virtual instant even if the
  predicate never fires, rejoining at exactly ``max(own time,
  wake_at)``.  Deadline-bounded waits (a resolver parked on another
  lane's fetch, but owing its client an answer first) need this —
  without it a waiter could only resume at another lane's possibly much
  later clock.

When the pool drains, the base clock is set to the *makespan* —
``max`` over lane times — which is exactly the wall-clock a real
concurrent scanner would have spent.

The hand-off rests on two facts the rules above already guarantee.
Only the token holder ever touches scheduler state, so the scheduler
needs no mutex; and lanes never run in parallel, so every parked lane
can sleep on a *baton* of its own (a lock it acquires) and the token
holder wakes exactly the one lane it chose — or nobody, when it is
still the minimum itself.  For the same reason lane threads confine
themselves to one CPU: strictly serial threads gain nothing from a
second one and would pay a cross-CPU wake-up at every hand-off.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class LaneDeadlock(RuntimeError):
    """Every live lane is parked on a predicate that can never fire."""


class _PoolAbort(BaseException):
    """Internal: unwind a lane after another lane failed the pool.

    Derives from ``BaseException`` so per-item ``except Exception``
    isolation (the scanner's error records) cannot swallow it.
    """


def _share_one_cpu() -> None:
    """Confine the calling thread to one CPU of its inherited mask.

    Picked by pid so parallel processes do not pile onto the first CPU;
    a no-op where the platform has no thread affinity.
    """
    try:
        mask = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {mask[os.getpid() % len(mask)]})
    except (AttributeError, OSError):
        pass


class VirtualLanePool:
    """Runs items through ``fn`` on N deterministic virtual-time lanes."""

    def __init__(self, clock, workers: int):
        if workers < 1:
            raise ValueError("need at least one lane")
        self._clock = clock
        self._workers = int(workers)
        self._tls = threading.local()
        self._times: list[float] = []
        #: One lock per lane, held while the lane may not run; releasing
        #: it is the only wake-up the pool ever issues.
        self._batons: list = []
        self._queue: deque = deque()
        self._fn: Callable | None = None
        self._running: int | None = None
        self._finished: set[int] = set()
        self._blocked: dict[int, Callable[[], bool]] = {}
        self._wake_at: dict[int, float] = {}
        self._failure: BaseException | None = None
        #: lifetime counters, for bench reporting
        self.tasks_run = 0
        self.switches = 0

    # -- public API ---------------------------------------------------------

    def run(self, items: Iterable[T], fn: Callable[[T], object]) -> None:
        """Process every item; returns once all lanes drain.

        ``fn`` runs with the lane token held, so anything it touches is
        effectively single-threaded.  Items are handed out in order to
        whichever lane is scheduled next, which is deterministic.
        """
        queue = deque(items)
        if not queue:
            return
        base = self._clock.now()
        lanes = min(self._workers, len(queue))
        self._times = [base] * lanes
        self._batons = [threading.Lock() for _ in range(lanes)]
        for baton in self._batons:
            baton.acquire()
        self._queue = queue
        self._fn = fn
        self._running = None
        self._finished = set()
        self._blocked = {}
        self._wake_at = {}
        self._failure = None

        threads = [
            threading.Thread(
                target=self._worker, args=(lane,), name=f"lane-{lane}", daemon=True
            )
            for lane in range(lanes)
        ]
        previous = getattr(self._clock, "_lanes", None)
        self._clock._lanes = self
        try:
            for thread in threads:
                thread.start()
            # Every lane is (or soon will be) parked on its baton; this
            # thread holds the token until it hands it to the first lane.
            self._hand_to(self._schedule(None))
            for thread in threads:
                thread.join()
        finally:
            self._clock._lanes = previous
        makespan = max(self._times)
        if makespan > self._clock.now():
            self._clock.set(makespan)
        if self._failure is not None:
            raise self._failure

    # -- lane-side clock hooks (called via SimulatedClock) ------------------

    def lane_id(self) -> int | None:
        """This thread's lane id, or None for non-lane threads."""
        return getattr(self._tls, "lane", None)

    def lane_now(self) -> float | None:
        lane = self.lane_id()
        if lane is None:
            return None
        return self._times[lane]

    def lane_advance(self, seconds: float) -> bool:
        """Advance the calling lane's time and maybe hand over the token."""
        lane = self.lane_id()
        if lane is None:
            return False
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._times[lane] += seconds
        self._yield_turn(lane)
        return True

    def lane_wait(
        self, predicate: Callable[[], bool], wake_at: float | None = None
    ) -> bool:
        """Park the calling lane until ``predicate()`` holds.

        Returns False when called off-lane (the caller should fall back
        to synchronous behaviour).  The predicate is re-evaluated at
        every scheduling point; it must be cheap and side-effect free.

        With ``wake_at``, the lane additionally becomes runnable at that
        virtual time even if the predicate never fired — it rejoins at
        exactly ``max(own time, wake_at)``, and the caller is expected
        to re-check the predicate to tell the two wake-ups apart.
        """
        lane = self.lane_id()
        if lane is None:
            return False
        if not predicate():
            self._blocked[lane] = predicate
            if wake_at is not None:
                self._wake_at[lane] = wake_at
        self._yield_turn(lane)
        return True

    # -- scheduler (token holder only: no lock guards this state) -----------

    def _worker(self, lane: int) -> None:
        self._tls.lane = lane
        _share_one_cpu()
        try:
            self._park(lane)
            while self._queue:
                item = self._queue.popleft()
                self.tasks_run += 1
                self._fn(item)
                # Finished an item while holding the token: let a lane
                # with a smaller clock claim the next one.
                self._yield_turn(lane)
        except _PoolAbort:
            pass
        except BaseException as exc:
            if self._failure is None:
                self._failure = exc
        finally:
            self._hand_to(self._retire(lane))

    def _retire(self, lane: int) -> int | None:
        """Take ``lane`` out of the schedule; returns the lane to wake."""
        self._finished.add(lane)
        self._blocked.pop(lane, None)
        self._wake_at.pop(lane, None)
        if self._failure is None:
            choice = self._schedule(lane)
            if self._failure is None:
                return choice
        # Unwind (a lane raised, or the schedule above found a deadlock):
        # wake the parked lanes one at a time, each to find the token is
        # not its own, abort through ``fn``, and wake the next.
        self._running = None
        return next(
            (i for i in range(len(self._times)) if i not in self._finished), None
        )

    def _hand_to(self, lane: int | None) -> None:
        """Wake ``lane``; the caller must not touch pool state afterwards."""
        if lane is not None:
            self._batons[lane].release()

    def _park(self, lane: int) -> None:
        """Sleep until handed the baton; abort unless the token came with it."""
        self._batons[lane].acquire()
        if self._running != lane:
            raise _PoolAbort()

    def _yield_turn(self, lane: int) -> None:
        """Reschedule and, unless still the minimum, sleep until chosen again."""
        if self._failure is not None:
            raise _PoolAbort()
        choice = self._schedule(lane)
        if choice == lane:
            return
        if choice is None:  # deadlock: this lane was the last one runnable
            raise _PoolAbort()
        self._hand_to(choice)
        self._park(lane)

    def _schedule(self, prev: int | None) -> int | None:
        """Pick the next lane: smallest time, then smallest id."""
        # Predicates may have been satisfied by whatever `prev` just did;
        # a lane unblocked now rejoins no earlier than prev's clock —
        # but a timed waiter never rejoins later than its alarm: its
        # wake-up would have fired at ``wake_at`` regardless of when
        # this scheduling point happens to observe the predicate.
        for waiter in sorted(self._blocked):
            if self._blocked[waiter]():
                del self._blocked[waiter]
                wake = self._wake_at.pop(waiter, None)
                if prev is not None:
                    rejoin = self._times[prev]
                    if wake is not None:
                        rejoin = min(rejoin, wake)
                    self._times[waiter] = max(self._times[waiter], rejoin)
        # Candidates: runnable lanes at their own clock, plus timed
        # waiters at their wake-up instant (a parked lane with a
        # wake_at is exactly a timer — it may resume on schedule even
        # if nothing satisfied its predicate first).
        candidates = [
            (self._times[lane], lane)
            for lane in range(len(self._times))
            if lane not in self._finished and lane not in self._blocked
        ]
        candidates.extend(
            (max(self._times[lane], at), lane)
            for lane, at in self._wake_at.items()
            if lane not in self._finished
        )
        if not candidates:
            if self._blocked and self._failure is None and len(self._finished) < len(self._times):
                self._failure = LaneDeadlock(
                    f"all lanes parked: {sorted(self._blocked)} wait on predicates "
                    "no runnable lane can satisfy"
                )
            self._running = None
            return None
        when, choice = min(candidates)
        if choice in self._blocked:
            # Timed wake-up: the predicate never fired, but the lane's
            # alarm is the earliest thing that can happen.
            del self._blocked[choice]
            del self._wake_at[choice]
            self._times[choice] = when
        if choice != self._running:
            self.switches += 1
        self._running = choice
        return choice


def run_in_lanes(clock, workers: int, items: Sequence[T], fn: Callable[[T], object]) -> None:
    """One-shot helper: run ``items`` through ``fn`` on a fresh pool."""
    VirtualLanePool(clock, workers).run(items, fn)
