"""Wire-level helpers for serving encoded responses without re-parsing.

ZDNS-style measurement throughput comes from making the per-query byte
path cheap.  Three pieces live here, all pure functions of bytes:

* :func:`wire_key` — a query's own bytes minus the message ID (which
  subsume qname, qtype, DO, CD, EDNS payload and header flags) as the
  key a rendered response is cached under
  (:class:`repro.resolver.cache.RenderedWireCache`);
* :func:`response_ttl_offsets` — where the TTL fields of an encoded
  response sit, so a cached wire can be served with only its ID and
  decrementing TTLs patched in place;
* :func:`parse_equivalent` / :func:`paved_reply` — the proof that lets
  the in-process fabric hand a server-built ``Message`` to the sender
  in place of a re-parse.

Everything here is parse-or-refuse: a wire the offset walker cannot
account for byte-by-byte (truncated records, trailing junk, unknown
label types) is never cached, because a wrong TTL offset would corrupt
the served response.  The walker treats a compression pointer as a
2-byte terminal and never records the OPT pseudo-record's TTL field —
that u32 holds the extended RCODE and EDNS flags, not a TTL.
"""

from __future__ import annotations

import struct

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
