"""The one virtual-clock TTL store every cache in the tree sits on.

Stale Answer (3), Stale NXDOMAIN Answer (19) and Cached Error (13) are
decided by nothing but *when a cache entry expires*, so that rule lives
here and nowhere else:

* an entry is **fresh** while ``now < expires_at`` — the boundary is
  closed: exactly at ``expires_at`` it has already expired;
* it is **stale** for ``stale_window`` seconds after that
  (``expires_at <= now < expires_at + stale_window``; RFC 8767
  retention, zero for stores that never serve stale data);
* past the window it is gone: whichever of :meth:`TtlStore.fresh` or
  :meth:`TtlStore.stale` touches it next drops it;
* a fresh entry's remaining TTL is :func:`remaining_ttl` — whole
  seconds, never below 1;
* the store is bounded: a ``put`` of a new key at capacity first frees
  a tenth of the capacity — expired entries, oldest-inserted first,
  then the oldest-inserted unexpired ones to make up the rest — so no
  unexpired entry is ever evicted while an expired one remains, and the
  scan that finds them is paid once per tenth, not once per ``put``.

Like every cross-lane structure it is mutated only with the lane token
held.
"""

from __future__ import annotations

from itertools import islice


def remaining_ttl(expires_at: float, now: float) -> int:
    """Whole seconds left before ``expires_at``, floored at 1 (a served
    record never carries TTL 0, which downstream caches would drop)."""
    return max(1, int(expires_at - now))


class TtlStore:
    """Bounded ``key -> (value, expires_at, owner)`` map on a virtual clock."""

    __slots__ = ("_clock", "_capacity", "_stale_window", "_entries", "expired", "evicted")

    def __init__(self, clock, capacity: int, stale_window: float = 0.0):
        self._clock = clock
        self._capacity = max(1, int(capacity))
        self._stale_window = stale_window
        #: In order of each key's *first* insertion: a re-``put`` keeps
        #: the key object and its place in line.
        self._entries: dict = {}
        #: Entries dropped because their time had passed (on touch, or
        #: first in line when room was needed).
        self.expired = 0
        #: Unexpired entries dropped to make room.
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key, value, expires_at: float, owner=None) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self._capacity:
            self._make_room()
        entries[key] = (value, expires_at, owner)

    def fresh(self, key):
        """The ``(value, expires_at, owner)`` entry while fresh, else None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        now = self._clock.now()
        if now < entry[1]:
            return entry
        if now >= entry[1] + self._stale_window:
            self._drop_expired(key)
        return None

    def holds(self, key, value) -> bool:
        """Whether ``key``'s entry, fresh or not, is the ``value`` put."""
        entry = self._entries.get(key)
        return entry is not None and entry[0] is value

    def stale(self, key):
        """The entry while inside its stale window, else None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        now = self._clock.now()
        if now < entry[1]:
            return None
        if now < entry[1] + self._stale_window:
            return entry
        self._drop_expired(key)
        return None

    def flush(self) -> None:
        self._entries.clear()

    def flush_owner(self, owner) -> int:
        """Drop every entry ``put`` with ``owner``; how many were dropped."""
        entries = self._entries
        dead = [key for key, entry in entries.items() if entry[2] == owner]
        for key in dead:
            del entries[key]
        return len(dead)

    def _drop_expired(self, key) -> None:
        del self._entries[key]
        self.expired += 1

    def _make_room(self) -> None:
        entries = self._entries
        now = self._clock.now()
        room = self._capacity // 10 or 1
        dead = list(
            islice((key for key, entry in entries.items() if now >= entry[1]), room)
        )
        for key in dead:
            del entries[key]
        self.expired += len(dead)
        oldest = list(islice(entries, room - len(dead)))
        for key in oldest:
            del entries[key]
        self.evicted += len(oldest)
