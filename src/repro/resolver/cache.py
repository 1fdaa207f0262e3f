"""Resolver caching: RRsets, negative answers, failed resolutions, wires.

Three cooperating stores, each a :class:`~repro.net.ttl_store.TtlStore`
(which owns the expiry rule) on the virtual clock:

* an RRset cache (positive data, TTL-bounded) that also supports
  *serve-stale* (RFC 8767): expired entries are retained for a grace
  window and can be served when fresh resolution fails — the paper's
  Stale Answer (3) / Stale NXDOMAIN Answer (19) categories;
* a negative cache for NXDOMAIN/NODATA (RFC 2308);
* an error cache remembering recent SERVFAILs so repeated failures are
  answered locally — the Cached Error (13) category.

:class:`RenderedWireCache` is the fourth: encoded responses for the
datagram path, each living exactly as long as the answer-cache entry
it was rendered from.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from ..dns.name import Name
from ..dns.render import RenderRefused, response_ttl_offsets
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..net.clock import Clock
from ..net.ttl_store import TtlStore, remaining_ttl

#: RFC 8767 section 4: stale data is served with a TTL of 30 seconds so
#: downstream caches re-ask soon after the authority recovers.
STALE_TTL = 30


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    negative_hits: int = 0
    error_hits: int = 0
    insertions: int = 0
    #: Positive entries dropped once past expiry (and any stale window),
    #: plus unexpired entries of any kind dropped to stay bounded.
    evictions: int = 0


class _NegativeEntry(NamedTuple):
    rcode: int
    authority: list[RRset]
    expires_at: float


class _ErrorEntry(NamedTuple):
    rcode: int
    expires_at: float
    detail: str = ""


#: Upper bound on a negative entry's TTL, seconds.
NEGATIVE_TTL_CAP = 900.0
#: How long a failed resolution is remembered, seconds.
ERROR_TTL = 30.0


@dataclass
class CacheConfig:
    max_entries: int = 100_000
    #: RFC 8767 suggests serving stale data for up to 1-3 days.
    serve_stale: bool = False
    stale_window: float = 86_400.0


def default_cache_config() -> CacheConfig:
    """The one serving-path cache default, shared by every front end.

    Serve-stale is ON (RFC 8767, one day of stale retention): anything
    that answers *clients* — ``ForwardingResolver``, ``tools/serve``,
    the resilient UDP frontend — should degrade to stale data rather
    than SERVFAIL during upstream outages.  Resolver instances built
    for *measurement* (the testbed matrix, the wild scan) keep their
    profile's transcription of each vendor's actual cache behaviour and
    must not use this default.
    """
    return CacheConfig(serve_stale=True)


class ResolverCache:
    """TTL cache for one resolver instance."""

    def __init__(self, clock: Clock, config: CacheConfig | None = None):
        self._clock = clock
        self.config = config or CacheConfig()
        capacity = self.config.max_entries
        window = self.config.stale_window if self.config.serve_stale else 0.0
        self._positive = TtlStore(clock, capacity, window)
        self._negative = TtlStore(clock, capacity, window)
        #: Mass failures (outages, chaos runs) would otherwise grow this
        #: without limit — one entry per failed name, forever.
        self._errors = TtlStore(clock, capacity)
        self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        stats = self._stats
        stats.evictions = (
            self._positive.expired
            + self._positive.evicted
            + self._negative.evicted
            + self._errors.evicted
        )
        return stats

    # -- positive -----------------------------------------------------------------

    def put_rrset(self, rrset: RRset) -> None:
        self._positive.put(
            (rrset.name, int(rrset.rdtype)), rrset.copy(), self._clock.now() + rrset.ttl
        )
        self._stats.insertions += 1

    def get_rrset(self, name: Name, rdtype: RdataType) -> RRset | None:
        """Fresh entry or None; updates the entry's remaining TTL."""
        entry = self._positive.fresh((name, int(rdtype)))
        if entry is None:
            self._stats.misses += 1
            return None
        self._stats.hits += 1
        return entry[0].copy(ttl=remaining_ttl(entry[1], self._clock.now()))

    def positive_entry(self, name: Name, rdtype: RdataType) -> tuple[RRset, float] | None:
        """A fresh positive entry as stored — the RRset and its
        fractional expiry — or None.

        No stats: the rendered-wire cache uses it to record the exact
        ``expires_at`` a hit was served against, so per-hit TTL patches
        reproduce ``get_rrset``'s remaining TTL byte-for-byte.
        """
        entry = self._positive.fresh((name, int(rdtype)))
        return entry[:2] if entry is not None else None

    def answers_from(self, kind: str, key: tuple[Name, int], value) -> bool:
        """Whether a lookup of ``key`` — ``(name, int(rdtype))`` — in the
        resolver's probe order (errors, positive, negative) would be
        answered from ``value``, the entry a ``kind`` hit was served from,
        as long as that entry lives.

        No stats: the rendered-wire cache asks before it replays a hit,
        so a reply is never served after its entry was replaced, evicted
        or shadowed by one probed before it.
        """
        if kind == "error":
            return self._errors.holds(key, value)
        if self._errors.fresh(key) is not None:
            return False
        if kind == "positive":
            return self._positive.holds(key, value)
        return self._positive.fresh(key) is None and self._negative.holds(key, value)

    def get_stale_rrset(self, name: Name, rdtype: RdataType) -> RRset | None:
        """Expired-but-retained entry for serve-stale, or None."""
        entry = self._positive.stale((name, int(rdtype)))
        if entry is None:
            return None
        self._stats.stale_hits += 1
        # RFC 8767: serve stale data with a TTL of 30 seconds.
        return entry[0].copy(ttl=STALE_TTL)

    # -- negative -------------------------------------------------------------------

    def put_negative(
        self, name: Name, rdtype: RdataType, rcode: int, authority: list[RRset], ttl: float
    ) -> None:
        # RFC 2308 section 5: the negative TTL is the *minimum* of the
        # SOA record's own TTL (what the caller passes) and its MINIMUM
        # field — a zone advertising SOA TTL 3600 but MINIMUM 60 wants
        # its denials forgotten after a minute.  ``NEGATIVE_TTL_CAP``
        # still bounds both.
        for rrset in authority:
            if int(rrset.rdtype) == int(RdataType.SOA):
                for rdata in rrset.rdatas:
                    minimum = getattr(rdata, "minimum", None)
                    if minimum is not None:
                        ttl = min(ttl, float(minimum))
        ttl = min(ttl, NEGATIVE_TTL_CAP)
        expires_at = self._clock.now() + ttl
        self._negative.put(
            (name, int(rdtype)),
            _NegativeEntry(rcode, [rrset.copy() for rrset in authority], expires_at),
            expires_at,
        )

    def get_negative(self, name: Name, rdtype: RdataType) -> _NegativeEntry | None:
        entry = self._negative.fresh((name, int(rdtype)))
        if entry is None:
            return None
        self._stats.negative_hits += 1
        return entry[0]

    def get_stale_negative(self, name: Name, rdtype: RdataType) -> _NegativeEntry | None:
        """Expired negative entry retained for serve-stale (RFC 8767 also
        applies to NXDOMAIN — the paper's Stale NXDOMAIN Answer (19))."""
        entry = self._negative.stale((name, int(rdtype)))
        if entry is None:
            return None
        self._stats.stale_hits += 1
        return entry[0]

    # -- errors ------------------------------------------------------------------------

    def put_error(self, name: Name, rdtype: RdataType, rcode: int, detail: str = "") -> None:
        expires_at = self._clock.now() + ERROR_TTL
        self._errors.put(
            (name, int(rdtype)), _ErrorEntry(rcode, expires_at, detail), expires_at
        )

    def get_error(self, name: Name, rdtype: RdataType) -> _ErrorEntry | None:
        entry = self._errors.fresh((name, int(rdtype)))
        if entry is None:
            return None
        self._stats.error_hits += 1
        return entry[0]

    # -- bookkeeping -----------------------------------------------------------------------

    def flush(self) -> None:
        self._positive.flush()
        self._negative.flush()
        self._errors.flush()

    def __len__(self) -> int:
        return len(self._positive) + len(self._negative) + len(self._errors)


#: Rendered wires one resolver keeps (each at most a datagram long).
RENDER_CACHE_CAPACITY = 8192


@dataclass
class RenderCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    expired: int = 0
    evictions: int = 0
    #: Wires the offset walker refused to map (never cached).
    refusals: int = 0


class RenderedWireCache:
    """Fully encoded responses, keyed by :func:`~repro.dns.render.wire_key`.

    A hit serves the stored buffer with two in-place patches and zero
    ``Message`` work: the two message-ID octets are rewritten from the
    incoming query, and answer TTLs are re-computed from the
    *fractional* expiry recorded at store time with the same
    :func:`~repro.net.ttl_store.remaining_ttl` the rrset cache uses — so
    a patched hit is byte-identical to the uncached answer.  Storing is
    parse-or-refuse: a wire :func:`~repro.dns.render.response_ttl_offsets`
    cannot account for byte-by-byte is never cached, because a wrong TTL
    offset would corrupt the served response.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        #: key -> (the wire after its ID, cut at every TTL field a hit
        #: patches; those TTLs' fractional expiry; note)
        self._store = TtlStore(clock, RENDER_CACHE_CAPACITY)
        self._stats = RenderCacheStats()

    @property
    def stats(self) -> RenderCacheStats:
        stats = self._stats
        stats.expired = self._store.expired
        stats.evictions = self._store.evicted
        return stats

    def serve(self, key, query_wire) -> tuple[bytes, object] | None:
        """The cached response for ``key`` patched for this query, and
        the ``note`` it was stored with; or None."""
        entry = self._store.fresh(key)
        if entry is None:
            self._stats.misses += 1
            return None
        pieces, expires_at, note = entry[0]
        ttl = b""
        if len(pieces) > 1:
            ttl = remaining_ttl(expires_at, self._clock.now()).to_bytes(4, "big")
        self._stats.hits += 1
        return query_wire[:2] + ttl.join(pieces), note

    def store(
        self,
        key,
        wire: bytes,
        *,
        expires_at: float,
        decrement_answers_until: float | None = None,
        note: object = None,
    ) -> bool:
        """Cache ``wire`` under ``key`` until ``expires_at``; returns
        False when refused.

        ``decrement_answers_until`` marks the answer-section records
        (the first ANCOUNT TTL fields) for per-hit decrement against
        that fractional expiry; authority/additional TTLs are served
        verbatim, which matches how the negative cache replays its
        stored SOA.  ``note`` is the caller's, handed back with every
        hit.
        """
        try:
            offsets = response_ttl_offsets(wire)
        except RenderRefused:
            self._stats.refusals += 1
            return False
        patched: list[int] = []
        if decrement_answers_until is not None:
            ancount = struct.unpack_from(">H", wire, 6)[0]
            if ancount > len(offsets):
                # An answer section we cannot fully map (e.g. an OPT
                # miscounted into it) — refuse rather than mis-patch.
                self._stats.refusals += 1
                return False
            patched = offsets[:ancount]
        cuts = [2, *(edge for offset in patched for edge in (offset, offset + 4)), len(wire)]
        pieces = tuple(bytes(wire[start:end]) for start, end in zip(cuts[::2], cuts[1::2]))
        self._store.put(key, (pieces, decrement_answers_until, note), expires_at)
        self._stats.stores += 1
        return True

    def flush(self) -> None:
        self._store.flush()

    def __len__(self) -> int:
        return len(self._store)
