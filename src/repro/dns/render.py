"""Wire-level helpers for serving encoded responses without re-parsing.

ZDNS-style measurement throughput comes from making the per-query byte
path cheap.  Five pieces live here:

* :func:`wire_key` — a query's own bytes minus the message ID (which
  subsume qname, qtype, DO, CD, EDNS payload and header flags) as the
  key a rendered response is cached under
  (:class:`repro.resolver.cache.RenderedWireCache`);
* :func:`response_ttl_offsets` — where the TTL fields of an encoded
  response sit, so a cached wire can be served with only its ID and
  decrementing TTLs patched in place;
* :func:`parse_equivalent` / :func:`paved_reply` / :func:`read_reply` —
  the proof that lets the in-process fabric hand a server-built
  ``Message`` to the sender in place of a re-parse;
* :class:`LazyWire` / :func:`wire_length` — the datagram whose bytes
  exist only once somebody reads them;
* :func:`header_reply` — the reply built from a query's bytes without
  parsing them, for when parsing failed or is not the point.

Everything here is parse-or-refuse: a wire the offset walker cannot
account for byte-by-byte (truncated records, trailing junk, unknown
label types) is never cached, because a wrong TTL offset would corrupt
the served response.  The walker treats a compression pointer as a
2-byte terminal and never records the OPT pseudo-record's TTL field —
that u32 holds the extended RCODE and EDNS flags, not a TTL.
"""

from __future__ import annotations

import struct

from .message import Message
from .rcode import Rcode, extended_bits
from .types import Opcode
from .wire import MAX_POINTER_TARGET, name_wire_size

HEADER_LENGTH = 12
_OPT_TYPE = 41
_OPCODES = frozenset(int(opcode) for opcode in Opcode)


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


def wire_length(message) -> int | None:
    """Exactly ``len(message.to_wire())``, without building the buffer —
    or None when that cannot be vouched for, and the caller renders.

    One pass over the question and owner names with the compression
    table :meth:`~repro.dns.wire.WireWriter.write_name` keeps; what an
    rdata contributes (its size, the names it registers as compression
    targets) comes from :meth:`~repro.dns.rdata.Rdata.wire_shape`, which
    learned it from the rdata's own ``write``, so no per-type length
    rule sits beside the encoder.  Refused: a relative name, and an
    rdata whose size depends on the message around it.
    """
    question = message.question
    if not (message.answer or message.authority or message.additional):
        # A query: nothing to compress against but the one question.
        if len(question) == 1:
            name = question[0].name
            if not name.is_absolute():
                return None
            return HEADER_LENGTH + len(name) + 4 + _edns_size(message)
    suffixes: set[tuple[bytes, ...]] = set()
    pos = HEADER_LENGTH
    try:
        for entry in question:
            pos += name_wire_size(entry.name, pos, suffixes) + 4
        for section in (message.answer, message.authority, message.additional):
            for rrset in section:
                owner = rrset.name
                folded = owner.folded_labels
                for rdata in rrset.rdatas:
                    # owner, then TYPE CLASS TTL RDLENGTH; once the
                    # owner is registered, it is a 2-octet pointer
                    if folded in suffixes:
                        pos += 12
                    else:
                        pos += name_wire_size(owner, pos, suffixes) + 10
                    shape = rdata.wire_shape()
                    if shape is None:
                        return None
                    if type(shape) is not int:
                        if pos + shape[0] <= MAX_POINTER_TARGET:
                            # every name in it lies below the pointer
                            # limit: all of its suffixes are registered
                            for at in range(2, len(shape), 2):
                                suffixes.update(shape[at].suffixes)
                        else:
                            for at in range(1, len(shape), 2):
                                name_wire_size(
                                    shape[at + 1], pos + shape[at], suffixes, compress=False
                                )
                        shape = shape[0]
                    pos += shape
    except ValueError:
        return None
    return pos + _edns_size(message)


def _edns_size(message) -> int:
    return 0 if message.edns is None else message.edns.wire_size()


class LazyWire:
    """What crosses the in-process fabric in place of an encoded message.

    ``len()`` is the exact wire length (:func:`wire_length`; rendered
    only if the sizer refuses) — all that latency, loss, truncation and
    ``fabric.stats`` ever ask of a datagram.  ``bytes()`` renders, once,
    through :meth:`Message.to_wire`, which stays the only render
    function.  The Message is read-only to both sides of the fabric: a
    late render must produce what an eager one would have.

    Not comparable with ``bytes``: ``wire == b"..."`` would quietly be
    False for equal content, so it raises; compare ``bytes(wire)``.
    """

    __slots__ = ("message", "_length", "_wire")

    def __init__(self, message) -> None:
        self.message = message
        self._length: int | None = None
        self._wire: bytes | None = None

    def __len__(self) -> int:
        if self._length is None:
            length = wire_length(self.message)
            self._length = len(bytes(self)) if length is None else length
        return self._length

    def __bytes__(self) -> bytes:
        if self._wire is None:
            self._wire = self.message.to_wire()
        return self._wire

    def __eq__(self, other):
        if isinstance(other, (bytes, bytearray, memoryview)):
            raise TypeError("compare bytes(wire), not the LazyWire, with bytes")
        return NotImplemented

    __hash__ = object.__hash__


def parse_equivalent(response) -> bool:
    """True when ``Message.from_wire(response.to_wire())`` provably
    reproduces ``response``.

    The fabric's paved path hands a server-built response ``Message``
    back to the resolver in place of its encoding so the resolver can
    skip the re-parse.  That is only sound when the parse is an
    identity, which this proves from cheap invariants of the Message
    alone:

    * the RCODE fits the 4-bit header field or an OPT carries the
      extended bits — and that ``Edns`` already holds the bits a parse
      would store in it (encoding writes them to the wire, not to the
      object),
    * no EDNS options are present (option objects are not proven to
      round-trip by type),
    * no two RRsets of a section share ``(name, type, class)`` — the
      parser folds such rows into one RRset with the minimum TTL,
    * every RRset carries at least one rdata (empty ones vanish on the
      wire).

    Anything unprovable returns False and the caller falls back to
    parsing the wire, so refusals cost correctness nothing.
    """
    edns = response.edns
    if edns is None:
        if response.rcode > 0xF:
            return False
    elif edns.options or edns.extended_rcode_bits != extended_bits(response.rcode):
        return False
    for section in (response.answer, response.authority, response.additional):
        seen = set()
        for rrset in section:
            if not rrset.rdatas:
                return False
            # RdataType and RdataClass hash and compare as their ints
            seen.add((rrset.name, rrset.rdtype, rrset.rdclass))
        if len(seen) != len(section):
            return False
    return True


def read_reply(wire) -> Message:
    """The Message a reply wire stands for — how every sender on the
    fabric reads what came back.

    A paved reply is a :class:`LazyWire` whose Message the sender takes
    as is when :func:`parse_equivalent` proves a parse would give it
    back; it stays read-only to both sides.  Anything else is parsed,
    raising what :meth:`Message.from_wire` raises."""
    if type(wire) is LazyWire and parse_equivalent(wire.message):
        return wire.message
    return Message.from_wire(bytes(wire))


def header_reply(wire: bytes, rcode: int) -> bytes:
    """The reply to ``wire`` made from its bytes alone: the query's ID,
    QR set, RCODE ``rcode``.

    FORMERR says nothing past the header could be read, so that reply
    is the header alone — ID, opcode (QUERY when it is none this stack
    knows, so the reply parses), RD and CD — with every count zero.
    Any other RCODE is a verdict on a query that did decode: the whole
    query rides along, question and OPT included, so the reply passes
    the sender's ID, question and EDNS checks.  A datagram shorter than
    a header gets a bare one with ID 0.
    """
    rcode &= 0x0F
    if len(wire) < HEADER_LENGTH:
        return struct.pack(">HHHHHH", 0, 0x8000 | rcode, 0, 0, 0, 0)
    if rcode != Rcode.FORMERR:
        reply = bytearray(wire)
        reply[2] |= 0x80  # QR
        reply[3] = reply[3] & 0xF0 | rcode
        return bytes(reply)
    opcode = wire[2] & 0x78
    if opcode >> 3 not in _OPCODES:
        opcode = 0
    flags = bytes((0x80 | opcode | wire[2] & 0x01, wire[3] & 0x10 | rcode))
    return bytes(wire[:2]) + flags + bytes(8)


def paved_reply(response, max_size: int = 0):
    """What ``handle_paved`` returns for ``response``: a :class:`LazyWire`
    of it, unrendered, whose Message the sender reads through
    :func:`read_reply`.  Past ``max_size`` (> 0) it is the rendered
    :meth:`Message.truncated` form, which the sender parses before it
    retries over TCP."""
    wire = LazyWire(response)
    if max_size and len(wire) > max_size:
        return response.truncated(max_size).to_wire()
    return wire
