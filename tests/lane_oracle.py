"""Single-threaded model of the lane scheduling rule (test oracle).

``repro.net.lanes`` obtains its interleaving from OS threads passing a
token; this is the same rule as one loop over generators — the shape
ROADMAP item 2 proposes — written independently so the two can be
compared.  A lane *script* is a generator yielding scheduling points:
``("advance", seconds)`` or ``("wait", predicate, wake_at)``.
"""

from __future__ import annotations

from collections import deque


def simulate(base: float, workers: int, items, play):
    """Run ``play(item, now)`` generators under the lane rule.

    Returns ``(lane times, switches, deadlocked)``.  ``now`` is a
    zero-argument callable giving the calling lane's virtual time.
    """
    queue = deque(items)
    lanes = min(workers, len(queue))
    times = [base] * lanes
    task = [None] * lanes
    live = set(range(lanes))
    blocked: dict[int, tuple] = {}
    running = prev = None
    switches = 0
    while live:
        for lane in sorted(blocked):
            predicate, wake = blocked[lane]
            if predicate():
                del blocked[lane]
                if prev is not None:
                    rejoin = times[prev] if wake is None else min(times[prev], wake)
                    times[lane] = max(times[lane], rejoin)
        runnable = [(times[lane], lane) for lane in live if lane not in blocked]
        runnable += [
            (max(times[lane], wake), lane)
            for lane, (_p, wake) in blocked.items()
            if wake is not None
        ]
        if not runnable:
            return times, switches, True
        when, lane = min(runnable)
        if blocked.pop(lane, None) is not None:
            times[lane] = when  # the alarm fired before the predicate did
        switches += lane != running
        running = prev = lane
        # Run the chosen lane up to its next scheduling point.
        if task[lane] is None:
            if not queue:
                live.discard(lane)
                continue
            task[lane] = play(queue.popleft(), lambda lane=lane: times[lane])
        try:
            point = next(task[lane])
        except StopIteration:
            task[lane] = None  # item boundary: reschedule before the next pop
            continue
        if point[0] == "advance":
            times[lane] += point[1]
        elif not point[1]():
            blocked[lane] = point[1:]
    return times, switches, False
