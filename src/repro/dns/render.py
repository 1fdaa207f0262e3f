"""Rendered-response wire cache: zero-copy serving of encoded answers.

ZDNS-style measurement throughput comes from making the per-query byte
path cheap.  This module caches *fully encoded* response wires keyed by
the query's own bytes (which subsume qname, qtype, DO, CD, EDNS payload
and header flags), so a cache hit serves a stored buffer with two
in-place patches and zero ``Message`` work:

* the two message-ID octets are rewritten from the incoming query, and
* TTL fields that must decrement are re-computed from the *fractional*
  virtual-clock expiry recorded at store time — exactly
  ``max(1, int(expires_at - now))``, the same formula the rrset cache
  uses, so a patched hit is byte-identical to the uncached answer.

Everything here is parse-or-refuse: a wire the offset walker cannot
account for byte-by-byte (truncated records, trailing junk, unknown
label types) is never cached, because a wrong TTL offset would corrupt
the served response.  The walker treats a compression pointer as a
2-byte terminal and never records the OPT pseudo-record's TTL field —
that u32 holds the extended RCODE and EDNS flags, not a TTL.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

HEADER_LENGTH = 12
_OPT_TYPE = 41


class RenderRefused(ValueError):
    """The wire cannot be safely offset-mapped; refuse to cache it."""


def skip_name(wire, pos: int) -> int:
    """Return the offset just past the name starting at ``pos``.

    A compression pointer (top bits ``11``) is a 2-byte terminal; the
    reserved label types ``01``/``10`` are refused outright.
    """
    limit = len(wire)
    while True:
        if pos >= limit:
            raise RenderRefused("name runs past end of message")
        length = wire[pos]
        if length == 0:
            return pos + 1
        kind = length & 0xC0
        if kind == 0xC0:
            if pos + 2 > limit:
                raise RenderRefused("truncated compression pointer")
            return pos + 2
        if kind:
            raise RenderRefused(f"reserved label type 0x{kind:02x}")
        pos += 1 + length


def response_ttl_offsets(wire) -> list[int]:
    """Offsets of every patchable TTL field, in record order.

    Walks the question and all three record sections; every byte of the
    message must be accounted for (no trailing junk) or
    :class:`RenderRefused` is raised.  The OPT record's TTL field is
    *excluded* — patching it would clobber the extended RCODE.
    """
    limit = len(wire)
    if limit < HEADER_LENGTH:
        raise RenderRefused("message shorter than header")
    qdcount, ancount, nscount, arcount = struct.unpack_from(">HHHH", wire, 4)
    pos = HEADER_LENGTH
    for _ in range(qdcount):
        pos = skip_name(wire, pos) + 4  # qtype + qclass
        if pos > limit:
            raise RenderRefused("truncated question")
    offsets: list[int] = []
    for _ in range(ancount + nscount + arcount):
        pos = skip_name(wire, pos)
        if pos + 10 > limit:
            raise RenderRefused("truncated record header")
        rdtype, _rdclass = struct.unpack_from(">HH", wire, pos)
        rdlength = struct.unpack_from(">H", wire, pos + 8)[0]
        if rdtype != _OPT_TYPE:
            offsets.append(pos + 4)
        pos += 10 + rdlength
        if pos > limit:
            raise RenderRefused("record data runs past end of message")
    if pos != limit:
        raise RenderRefused("trailing bytes after last record")
    return offsets


def wire_key(query_wire) -> bytes | None:
    """Cache key for a query wire: everything but the message ID.

    The remaining bytes carry the header flags (RD/CD/opcode), the full
    case-sensitive qname, qtype, qclass, and the whole OPT record (DO
    bit, payload size, options) — so two queries that may legally
    receive different answers can never alias to one key.  Returns None
    for datagrams too short to be a DNS query.
    """
    if len(query_wire) <= HEADER_LENGTH:
        return None
    return bytes(query_wire[2:])


_FLAG_TC = 0x0200


def parse_equivalent(response, wire) -> bool:
    """True when ``Message.from_wire(wire)`` provably reproduces ``response``.

    The fabric's paved path hands a server-built response ``Message``
    back to the resolver alongside its encoding so the resolver can
    skip the re-parse.  That is only sound when the parse
    is an identity, which this proves from cheap invariants alone:

    * no truncation happened during encode (the wire's TC bit matches),
    * the RCODE fits the 4-bit header field or an OPT carries the
      extended bits,
    * no EDNS options are present (option objects are not proven to
      round-trip by type),
    * no two RRsets of a section share ``(name, type, class)`` — the
      parser folds such rows into one RRset with the minimum TTL,
    * every RRset carries at least one rdata (empty ones vanish on the
      wire), and the header counts add up exactly.

    Anything unprovable returns False and the caller falls back to
    parsing the wire, so refusals cost correctness nothing.
    """
    if len(wire) < HEADER_LENGTH:
        return False
    flags = int.from_bytes(wire[2:4], "big")
    if bool(flags & _FLAG_TC) != bool(response.tc):
        return False
    if response.rcode > 0xF and response.edns is None:
        return False
    if response.edns is not None and response.edns.options:
        return False
    qdcount, ancount, nscount, arcount = struct.unpack_from(">HHHH", wire, 4)
    if qdcount != len(response.question):
        return False
    sections = (
        (ancount, response.answer, False),
        (nscount, response.authority, False),
        (arcount, response.additional, True),
    )
    for count, section, holds_opt in sections:
        total = 0
        seen = set()
        for rrset in section:
            if not rrset.rdatas:
                return False
            skey = (rrset.name, int(rrset.rdtype), int(rrset.rdclass))
            if skey in seen:
                return False
            seen.add(skey)
            total += len(rrset.rdatas)
        if holds_opt and response.edns is not None:
            total += 1
        if count != total:
            return False
    return True


def paved_reply(response, wire: bytes):
    """What ``handle_paved`` returns for a freshly encoded ``response``:
    the wire, plus the Message itself only when handing it to the
    sender in place of a re-parse is sound (:func:`parse_equivalent`)."""
    return wire, response if parse_equivalent(response, wire) else None


@dataclass
class RenderCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    expired: int = 0
    evictions: int = 0
    #: Wires the offset walker refused to map (never cached).
    refusals: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "expired": self.expired,
            "evictions": self.evictions,
            "refusals": self.refusals,
        }

    def add(self, other: "RenderCacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.expired += other.expired
        self.evictions += other.evictions
        self.refusals += other.refusals


class _Entry:
    __slots__ = ("wire", "expires_at", "ttl_patches")

    def __init__(self, wire, expires_at, ttl_patches):
        self.wire = wire
        self.expires_at = expires_at  # float | None (None = never)
        self.ttl_patches = ttl_patches  # tuple[(offset, fractional expiry)]


class RenderedWireCache:
    """TTL-bounded cache of rendered response wires for one endpoint.

    ``clock`` may be None for endpoints whose answers are time-constant
    (a pure authoritative server without expiry); such a cache can only
    hold entries stored with ``expires_at=None`` and no TTL patches.
    """

    def __init__(self, clock=None, max_entries: int = 8192):
        self._clock = clock
        self.max_entries = int(max_entries)
        self._entries: dict = {}
        self.stats = RenderCacheStats()

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    # -- serving -------------------------------------------------------------

    def serve(self, key, query_wire) -> bytes | None:
        """The cached response for ``key`` patched for this query, or None.

        The stored buffer is copied once; the message ID comes from the
        incoming query and every decrementing TTL field is recomputed as
        ``max(1, int(expires_at - now))`` against the virtual clock.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        now = self._now()
        if entry.expires_at is not None and now >= entry.expires_at:
            del self._entries[key]
            self.stats.expired += 1
            self.stats.misses += 1
            return None
        out = bytearray(entry.wire)
        out[0:2] = query_wire[0:2]
        for offset, expires_at in entry.ttl_patches:
            struct.pack_into(">I", out, offset, max(1, int(expires_at - now)))
        self.stats.hits += 1
        return bytes(out)

    # -- storing -------------------------------------------------------------

    def store(
        self,
        key,
        wire: bytes,
        *,
        expires_at: float | None = None,
        decrement_answers_until: float | None = None,
        expire_after_min_ttl: bool = False,
    ) -> bool:
        """Cache ``wire`` under ``key``; returns False when refused.

        ``decrement_answers_until`` marks the answer-section records
        (the first ANCOUNT TTL fields) for per-hit decrement against
        that fractional expiry; authority/additional TTLs are served
        verbatim, which matches how the negative cache replays its
        stored SOA.  ``expire_after_min_ttl`` derives the entry expiry
        from the smallest TTL in the wire (the authoritative-server
        invalidation rule).  Both need a clock.
        """
        try:
            offsets = response_ttl_offsets(wire)
        except RenderRefused:
            self.stats.refusals += 1
            return False
        patches: tuple = ()
        if decrement_answers_until is not None:
            if self._clock is None:
                self.stats.refusals += 1
                return False
            ancount = struct.unpack_from(">H", wire, 6)[0]
            if ancount > len(offsets):
                # An answer section we cannot fully map (e.g. an OPT
                # miscounted into it) — refuse rather than mis-patch.
                self.stats.refusals += 1
                return False
            patches = tuple(
                (offset, decrement_answers_until) for offset in offsets[:ancount]
            )
        if expire_after_min_ttl and offsets:
            if self._clock is None:
                self.stats.refusals += 1
                return False
            min_ttl = min(
                struct.unpack_from(">I", wire, offset)[0] for offset in offsets
            )
            ttl_expiry = self._now() + min_ttl
            expires_at = ttl_expiry if expires_at is None else min(expires_at, ttl_expiry)
        self._entries[key] = _Entry(bytes(wire), expires_at, patches)
        self.stats.stores += 1
        if len(self._entries) > self.max_entries:
            # Drop the oldest-inserted tenth: cheap, deterministic.
            for stale_key in list(self._entries)[: self.max_entries // 10 or 1]:
                del self._entries[stale_key]
                self.stats.evictions += 1
        return True

    # -- bookkeeping ---------------------------------------------------------

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
