"""Deterministic consistent-hash ring for the resolver cluster.

The router keys every query by the qname's *registered domain* (the
last two labels), so all names under one delegation land on the same
shard — which is what keeps per-name caching, the two-phase stale and
cached-error scan flows, and single-flight coalescing shard-local, and
therefore makes shard count invisible in scan output.

Hashing is :func:`hashlib.blake2b` over UTF-8 key bytes: stable across
processes and Python versions (``hash()`` is salted per process and
would violate the determinism sanitizer's spirit), and cheap enough
that one route costs a digest plus a bisect.

Each shard contributes ``DEFAULT_VNODES`` virtual points (150, the
classic libketama density): enough that the largest shard's share of a
large keyspace stays within a few tens of percent of the mean, which
the hypothesis property tests in ``tests/test_cluster_ring.py`` bound
explicitly.  Consistency is the exact property those tests also pin:
adding a shard only moves keys *onto* the new shard; removing one only
moves keys that lived on it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Container, Iterable

from ..dns.name import Name

#: Virtual points per shard; the density the imbalance bound is stated at.
DEFAULT_VNODES = 150


def _point(data: str) -> int:
    """64-bit ring position of a string (deterministic, unsalted)."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def registered_domain_key(qname: Name | str) -> str:
    """Routing key: the last two non-root labels, lowercased.

    ``www.example.com.`` and ``example.com.`` both key to
    ``example.com`` so a delegation's whole subtree shares a shard.
    Shorter names (TLDs, the root) key to themselves.
    """
    if isinstance(qname, Name):
        labels = [label for label in qname.labels if label != b""]
        parts = [label.decode("ascii", "replace").lower() for label in labels]
    else:
        parts = [part.lower() for part in qname.rstrip(".").split(".") if part]
    return ".".join(parts[-2:]) if parts else "."


class ConsistentHashRing:
    """A sorted ring of (point, shard-id) pairs with virtual nodes."""

    def __init__(self, shard_ids: Iterable[str] = ()):
        self._points: list[tuple[int, str]] = []
        self._shards: set[str] = set()
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def _vnode_points(self, shard_id: str) -> list[tuple[int, str]]:
        return [
            (_point(f"{shard_id}#{index}"), shard_id)
            for index in range(DEFAULT_VNODES)
        ]

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        self._points.extend(self._vnode_points(shard_id))
        # Ties between distinct shards' points are broken by shard id,
        # so the mapping is a pure function of the shard set.
        self._points.sort()

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise KeyError(shard_id)
        self._shards.discard(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]

    def shard_for(self, key: str, exclude: Container[str] = ()) -> str:
        """The shard owning ``key``: first ring point clockwise of it.

        ``exclude`` skips shards while walking clockwise — the failover
        router uses it to reach a key's ring *successor* when its home
        shard is unreachable but not (yet) ejected.  Excluding a shard
        is provably equivalent to removing it (consistency property:
        removal only moves the victim's keys, onto exactly these
        successors); ``tests/test_cluster_ring.py`` pins the
        equivalence.  Raises :class:`LookupError` when no eligible
        shard remains.
        """
        if not self._points:
            raise LookupError("ring has no shards")
        start = bisect_right(self._points, (_point(key), "￿"))
        count = len(self._points)
        for step in range(count):
            shard_id = self._points[(start + step) % count][1]
            if shard_id not in exclude:
                return shard_id
        raise LookupError("every shard on the ring is excluded")

    def distribution(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys per shard (property tests and the imbalance gauge)."""
        counts = {shard_id: 0 for shard_id in self._shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
