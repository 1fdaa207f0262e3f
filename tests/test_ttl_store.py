"""The one TTL store: expiry boundary, stale window, bounded eviction.

Every cache in the tree (answer/negative/error, infra, shared L2,
rendered wires, report dedup) sits on
:class:`repro.net.ttl_store.TtlStore`, so its contract is pinned once,
here, against a list-scan model; the per-store suites only check wiring.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.clock import SimulatedClock
from repro.net.ttl_store import TtlStore, remaining_ttl

KEYS = st.integers(min_value=0, max_value=11)
OWNERS = st.sampled_from([None, 0, 1])
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.floats(min_value=0.0, max_value=20.0), OWNERS),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=15.0)),
    st.tuples(st.just("fresh"), KEYS),
    st.tuples(st.just("stale"), KEYS),
    st.tuples(st.just("flush_owner"), OWNERS),
)


class ListModel:
    """What the store must do, as scans over an insertion-ordered list
    of ``(key, value, expires_at, owner)`` rows."""

    def __init__(self, capacity: int, window: float):
        self.capacity, self.window, self.rows = capacity, window, []

    def put(self, now, key, value, expires_at, owner):
        rows, new = self.rows, (key, value, expires_at, owner)
        if any(row[0] == key for row in rows):  # refreshed in place
            self.rows = [new if row[0] == key else row for row in rows]
            return
        if len(rows) >= self.capacity:
            room = self.capacity // 10 or 1
            dead = [row for row in rows if now >= row[2]][:room]
            rows = [row for row in rows if row not in dead][room - len(dead):]
        self.rows = rows + [new]

    def lookup(self, now, key, stale: bool):
        for row in self.rows:
            if row[0] == key:
                if now >= row[2] + self.window:
                    self.rows.remove(row)
                    return None
                return row[1] if (now >= row[2]) == stale else None
        return None

    def flush_owner(self, owner) -> int:
        kept = [row for row in self.rows if row[3] != owner]
        dropped, self.rows = len(self.rows) - len(kept), kept
        return dropped


@given(
    capacity=st.integers(min_value=1, max_value=25),
    window=st.sampled_from([0.0, 4.0, 30.0]),
    ops=st.lists(OPS, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_store_matches_the_list_model(capacity, window, ops):
    clock = SimulatedClock(start=1000.0)
    store = TtlStore(clock, capacity, window)
    model = ListModel(capacity, window)
    expiry = {}  # key -> expires_at of its latest put
    serial = 0
    for op in ops:
        now = clock.now()
        if op[0] == "put":
            _, key, ttl, owner = op
            serial += 1
            evicted = store.evicted
            store.put(key, serial, now + ttl, owner)
            model.put(now, key, serial, now + ttl, owner)
            expiry[key] = now + ttl
            assert len(store) <= capacity
            if store.evicted > evicted:
                # An unexpired entry went: no expired one may remain
                # (among those already there; the new key is last).
                assert all(now < row[2] for row in model.rows[:-1])
        elif op[0] == "advance":
            clock.advance(op[1])
        elif op[0] in ("fresh", "stale"):
            key = op[1]
            entry = getattr(store, op[0])(key)
            want = model.lookup(now, key, stale=op[0] == "stale")
            assert (entry[0] if entry is not None else None) == want
            if entry is not None:
                assert entry[1] == expiry[key]
                if op[0] == "fresh":
                    assert now < entry[1]
                else:
                    assert entry[1] <= now < entry[1] + window
        else:
            assert store.flush_owner(op[1]) == model.flush_owner(op[1])
        assert len(store) == len(model.rows)
    # Whatever is left agrees key by key, and nothing outlives its window.
    now = clock.now()
    for key in range(12):
        fresh = store.fresh(key)
        assert (fresh[0] if fresh else None) == model.lookup(now, key, stale=False)
        stale = store.stale(key)
        assert (stale[0] if stale else None) == model.lookup(now, key, stale=True)
    assert len(store) == len(model.rows)
    assert all(now < row[2] + window for row in model.rows)


def test_boundary_is_closed_and_window_is_half_open():
    clock = SimulatedClock(start=0.0)
    store = TtlStore(clock, 8, stale_window=10.0)
    store.put("k", "v", 30.0)
    clock.set(29.999)
    assert store.fresh("k") is not None and store.stale("k") is None
    clock.set(30.0)  # exactly at expires_at: already expired, now stale
    assert store.fresh("k") is None and store.stale("k") is not None
    clock.set(39.999)
    assert store.stale("k") is not None and len(store) == 1
    clock.set(40.0)  # exactly at the end of the window: gone on touch
    assert store.stale("k") is None
    assert len(store) == 0 and store.expired == 1


def test_room_is_made_a_tenth_at_a_time_expired_first():
    clock = SimulatedClock(start=0.0)
    store = TtlStore(clock, 20)
    for key in range(20):
        store.put(key, key, 5.0 if key in (7, 13, 19) else 500.0)
    clock.set(6.0)
    store.put("new", 0, 500.0)  # frees 2: expired 7 and 13, no live entry
    assert (store.expired, store.evicted, len(store)) == (2, 0, 19)
    store.put("newer", 0, 500.0)
    assert len(store) == 20
    store.put("newest", 0, 500.0)  # frees 2 again: expired 19, then oldest (0)
    assert (store.expired, store.evicted, len(store)) == (3, 1, 19)
    assert store.fresh(0) is None and store.fresh(1) is not None


def test_a_refreshed_key_keeps_its_place_in_line():
    clock = SimulatedClock(start=0.0)
    store = TtlStore(clock, 2)
    store.put("a", 1, 500.0)
    store.put("b", 1, 500.0)
    store.put("a", 2, 500.0)  # no room needed; "a" is still the oldest
    assert store.fresh("a")[0] == 2 and len(store) == 2
    store.put("c", 1, 500.0)
    assert store.fresh("a") is None
    assert store.fresh("b") is not None and store.fresh("c") is not None


@given(
    expires_at=st.floats(min_value=0.0, max_value=1e6),
    now=st.floats(min_value=0.0, max_value=1e6),
    later=st.floats(min_value=0.0, max_value=1e5),
)
def test_remaining_ttl_is_at_least_one_and_never_grows(expires_at, now, later):
    first, second = remaining_ttl(expires_at, now), remaining_ttl(expires_at, now + later)
    assert first >= second >= 1
    assert isinstance(first, int)
    if expires_at - now >= 1:
        assert first == int(expires_at - now)
