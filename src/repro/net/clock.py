"""Virtual time.

Everything time-dependent — signature windows, cache TTLs, stale-answer
decisions, timeouts — reads a :class:`Clock`, so whole experiments are
deterministic and can fast-forward years in microseconds.
"""

from __future__ import annotations

import time
from typing import Callable


class Clock:
    """Base interface; also usable as the wall clock."""

    def now(self) -> float:
        # The one sanctioned wall-clock read: this adapter IS the boundary.
        return time.time()

    def advance(self, seconds: float) -> None:  # pragma: no cover - wall clock
        raise NotImplementedError("cannot advance the wall clock")

    def sleep(self, seconds: float) -> None:  # pragma: no cover - wall clock
        """Wait out a delay (retry backoff); real time on the wall clock."""
        if seconds > 0:
            time.sleep(seconds)

    def wait_virtual(
        self, predicate: Callable[[], bool], wake_at: float | None = None
    ) -> bool:
        """Park the caller until ``predicate()`` holds, if this clock can.

        Returns True when the wait happened (concurrent lanes active),
        False when the caller must fall back to synchronous behaviour.
        ``wake_at`` optionally bounds the wait: the caller resumes at
        that virtual time even if the predicate never fires.  The wall
        clock has no lanes, so this is always False here.
        """
        return False


class SimulatedClock(Clock):
    """A manually advanced clock starting at a fixed epoch.

    The default epoch is 2023-05-15 (the paper's measurement month) so
    signature validity windows in test fixtures read naturally.
    """

    #: 2023-05-15 00:00:00 UTC
    PAPER_EPOCH = 1684108800

    def __init__(self, start: float = PAPER_EPOCH):
        self._now = float(start)
        #: Active :class:`~repro.net.lanes.VirtualLanePool`, when a
        #: concurrent scan is in progress.  While set, lane threads see
        #: per-lane virtual time; other threads see the base clock.
        self._lanes = None

    def now(self) -> float:
        lanes = self._lanes
        if lanes is not None:
            lane_now = lanes.lane_now()
            if lane_now is not None:
                return lane_now
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        lanes = self._lanes
        if lanes is not None and lanes.lane_advance(seconds):
            return
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Simulated waits advance virtual time instantly."""
        if seconds > 0:
            self.advance(seconds)

    def set(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError("time only moves forward")
        self._now = float(timestamp)

    def wait_virtual(
        self, predicate: Callable[[], bool], wake_at: float | None = None
    ) -> bool:
        """Park the calling lane until ``predicate()`` holds.

        Only meaningful while a :class:`VirtualLanePool` drives this
        clock; single-flight coalescing in the resolver uses it to wait
        for another lane's identical in-flight fetch, passing the
        client's deadline as ``wake_at`` so the wait cannot outlive the
        answer the client is owed.
        """
        lanes = self._lanes
        if lanes is not None and lanes.lane_wait(predicate, wake_at):
            return True
        return False
