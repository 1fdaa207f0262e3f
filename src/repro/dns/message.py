"""DNS messages: header, question, and the three record sections.

Encoding groups records into RRsets on parse and flattens them on write;
the OPT pseudo-record is lifted out of the additional section into a
:class:`repro.dns.edns.Edns` object (and re-synthesized on encode), so
EDE options are always reached via ``message.edns``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import rcode as rcode_mod
from .edns import Edns, EdnsOption
from .ede import ExtendedError
from .exceptions import FormError
from .name import Name
from .rdata import Rdata
from .rrset import RRset
from .types import Opcode, RdataClass, RdataType
from .wire import WireReader, WireWriter

HEADER_LENGTH = 12

#: Fallback message-ID generator for callers that inject neither an
#: explicit ``msg_id`` nor their own ``rng``.  Seeded so that runs are
#: reproducible end-to-end; components owning a seeded Random (the
#: iterative resolver, the scanners) pass theirs instead.
_ID_RNG = random.Random(0x8914)

# header flag bit masks (within the 16-bit flags word)
FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080
FLAG_AD = 0x0020
FLAG_CD = 0x0010


@dataclass(frozen=True)
class Question:
    name: Name
    rdtype: RdataType
    rdclass: RdataClass = RdataClass.IN

    def __str__(self) -> str:
        return f"{self.name} {self.rdclass} {self.rdtype}"


@dataclass
class Message:
    """A DNS message in decoded form."""

    id: int = 0
    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    ad: bool = False
    cd: bool = False
    rcode: int = rcode_mod.Rcode.NOERROR
    question: list[Question] = field(default_factory=list)
    answer: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    additional: list[RRset] = field(default_factory=list)
    edns: Edns | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def make_query(
        cls,
        qname: Name | str,
        rdtype: RdataType | str = RdataType.A,
        rdclass: RdataClass = RdataClass.IN,
        *,
        want_dnssec: bool = False,
        use_edns: bool = True,
        recursion_desired: bool = True,
        payload: int = 1232,
        msg_id: int | None = None,
        rng: random.Random | None = None,
    ) -> "Message":
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        if not qname.is_absolute():
            # Queries are always for absolute names; be dig-like about it.
            qname = Name(qname.labels + (b"",))
        if type(rdtype) is not RdataType:
            rdtype = RdataType.make(rdtype)
        if msg_id is None:
            msg_id = (rng if rng is not None else _ID_RNG).randrange(0x10000)
        return cls(
            id=msg_id,
            rd=recursion_desired,
            question=[Question(qname, rdtype, rdclass)],
            edns=(
                Edns(payload=payload, dnssec_ok=want_dnssec)
                if use_edns or want_dnssec
                else None
            ),
        )

    def make_response(self, recursion_available: bool = True) -> "Message":
        """Skeleton response to this query, echoing id/question/EDNS."""
        response = Message(
            id=self.id,
            qr=True,
            opcode=self.opcode,
            rd=self.rd,
            ra=recursion_available,
            cd=self.cd,
        )
        response.question = list(self.question)
        if self.edns is not None:
            response.edns = Edns(dnssec_ok=self.edns.dnssec_ok)
        return response

    def is_reply_to(self, query: "Message") -> bool:
        """Whether a sender may accept this message as the reply to
        ``query``: same ID, same question (RFC 5452 section 9.1).  Any
        other datagram is somebody else's reply, and no reply at all."""
        return self.id == query.id and self.question == query.question

    def badvers_response(self, recursion_available: bool = True) -> "Message | None":
        """The reply RFC 6891 section 6.1.3 owes this query when its OPT
        names an EDNS version above 0, the highest implemented here —
        else None, and the endpoint answers as usual.

        RCODE BADVERS, an OPT of version 0, the question echoed, no
        records.  The OPT already holds the extended bits a parse would
        store there, so the paved fabric hands the reply back unparsed
        (:func:`repro.dns.render.parse_equivalent`).
        """
        if self.edns is None or self.edns.version == 0:
            return None
        response = self.make_response(recursion_available)
        response.rcode = rcode_mod.Rcode.BADVERS
        response.edns.extended_rcode_bits = rcode_mod.extended_bits(response.rcode)
        return response

    # -- EDE helpers -----------------------------------------------------------

    @property
    def extended_errors(self) -> list[ExtendedError]:
        """All EDE options present on this message (possibly empty)."""
        if self.edns is None:
            return []
        return [opt for opt in self.edns.options if isinstance(opt, ExtendedError)]

    @property
    def ede_codes(self) -> tuple[int, ...]:
        """Sorted, de-duplicated INFO-CODEs on this message."""
        return tuple(sorted({e.info_code for e in self.extended_errors}))

    def add_option(self, option: EdnsOption) -> bool:
        """Attach ``option`` iff this message has an OPT; whether it did.
        The one check for every option a reply carries: a reply has an
        OPT iff its query had one (:meth:`make_response`, RFC 6891
        section 7), so EDE rides only there (RFC 8914 section 3)."""
        if self.edns is None:
            return False
        self.edns.options.append(option)
        return True

    def add_ede(self, info_code: int, extra_text: str = "") -> bool:
        """Attach one EDE option via :meth:`add_option`; whether it did.
        RFC 8914 allows repeats, but an identical ``(code, text)`` pair
        tells the client nothing new, so it is not attached twice."""
        option = ExtendedError.make(info_code, extra_text)
        return option not in self.extended_errors and self.add_option(option)

    # -- section helpers -----------------------------------------------------

    def find_answer(self, name: Name, rdtype: RdataType) -> RRset | None:
        for rrset in self.answer:
            if rrset.match(name, rdtype):
                return rrset
        return None

    def section_rrsets(self) -> list[RRset]:
        return [*self.answer, *self.authority, *self.additional]

    # -- wire ---------------------------------------------------------------------

    def to_wire(self, max_size: int = 0) -> bytes:
        """Encode; if ``max_size`` > 0 and exceeded, encode
        :meth:`truncated` instead.  Writes to nothing the Message holds:
        wires are rendered late and more than once."""
        writer = WireWriter()
        flags = 0
        if self.qr:
            flags |= FLAG_QR
        flags |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            flags |= FLAG_AA
        if self.tc:
            flags |= FLAG_TC
        if self.rd:
            flags |= FLAG_RD
        if self.ra:
            flags |= FLAG_RA
        if self.ad:
            flags |= FLAG_AD
        if self.cd:
            flags |= FLAG_CD
        flags |= rcode_mod.header_bits(self.rcode)

        writer.write_u16(self.id)
        writer.write_u16(flags)
        writer.write_u16(len(self.question))
        ancount_at = writer.offset
        writer.write_u16(0)
        nscount_at = writer.offset
        writer.write_u16(0)
        arcount_at = writer.offset
        writer.write_u16(0)

        for question in self.question:
            writer.write_name(question.name)
            writer.write_u16(int(question.rdtype))
            writer.write_u16(int(question.rdclass))

        ancount = sum(rrset.write(writer) for rrset in self.answer)
        writer.patch_u16(ancount_at, ancount)
        nscount = sum(rrset.write(writer) for rrset in self.authority)
        writer.patch_u16(nscount_at, nscount)
        arcount = sum(rrset.write(writer) for rrset in self.additional)

        if self.edns is not None:
            self.edns.write(writer, rcode_mod.extended_bits(self.rcode))
            arcount += 1
        writer.patch_u16(arcount_at, arcount)

        wire = writer.getvalue()
        if max_size and len(wire) > max_size:
            return self.truncated(max_size).to_wire()
        return wire

    def truncated(self, max_size: int = 0) -> "Message":
        """The TC=1 form sent when this message exceeds the size limit:
        header, question and OPT, no records, in ``max(512, max_size)``
        octets.  AD is cleared (nothing left to vouch for); CD is the
        query's bit echoed (RFC 4035 section 3.2.2) and survives.  The
        OPT stays (RFC 6891 section 7), on an ``Edns`` of its own that
        sheds options until the form fits: EXTRA-TEXT first (RFC 8914
        section 3), then EDE options, then the rest."""
        form = replace(
            self, tc=True, ad=False, question=list(self.question),
            answer=[], authority=[], additional=[],
            edns=None if self.edns is None else replace(self.edns, options=list(self.edns.options)),
        )
        limit = max(512, max_size)
        for shed in _TC_SHEDS:
            if form.edns is None or not form.edns.options or len(form.to_wire()) <= limit:
                break
            form.edns.options = shed(form.edns.options)
        return form

    @classmethod
    def from_wire(cls, wire: bytes | bytearray | memoryview) -> "Message":
        """Parse a message from any bytes-like buffer.

        ``memoryview`` input parses without copying the buffer up front —
        useful when the message sits inside a larger receive buffer
        (TCP streams, zone transfers).
        """
        reader = WireReader(wire)
        if len(wire) < HEADER_LENGTH:
            raise FormError("message shorter than header")
        msg_id = reader.read_u16()
        flags = reader.read_u16()
        qdcount = reader.read_u16()
        ancount = reader.read_u16()
        nscount = reader.read_u16()
        arcount = reader.read_u16()

        opcode_value = (flags >> 11) & 0xF
        try:
            opcode = Opcode(opcode_value)
        except ValueError as exc:
            raise FormError(f"unknown opcode {opcode_value}") from exc
        message = cls(
            id=msg_id,
            qr=bool(flags & FLAG_QR),
            opcode=opcode,
            aa=bool(flags & FLAG_AA),
            tc=bool(flags & FLAG_TC),
            rd=bool(flags & FLAG_RD),
            ra=bool(flags & FLAG_RA),
            ad=bool(flags & FLAG_AD),
            cd=bool(flags & FLAG_CD),
            rcode=flags & 0xF,
        )

        for _ in range(qdcount):
            qname = reader.read_name()
            qtype = reader.read_u16()
            qclass = reader.read_u16()
            try:
                rdtype = RdataType(qtype)
                rdclass = RdataClass(qclass)
            except ValueError as exc:
                raise FormError(f"unknown question type/class {qtype}/{qclass}") from exc
            message.question.append(Question(qname, rdtype, rdclass))

        message.answer = _read_section(reader, ancount, message, is_additional=False)
        message.authority = _read_section(reader, nscount, message, is_additional=False)
        message.additional = _read_section(reader, arcount, message, is_additional=True)

        if message.edns is not None:
            message.rcode = rcode_mod.join(
                message.rcode, message.edns.extended_rcode_bits
            )
        return message

    def __str__(self) -> str:
        lines = [
            f";; id {self.id} opcode {self.opcode.name}"
            f" rcode {rcode_mod.Rcode(self.rcode).name if self.rcode in rcode_mod.Rcode._value2member_map_ else self.rcode}"
            f" flags {'qr ' if self.qr else ''}{'aa ' if self.aa else ''}"
            f"{'rd ' if self.rd else ''}{'ra ' if self.ra else ''}"
            f"{'ad ' if self.ad else ''}{'cd' if self.cd else ''}".rstrip()
        ]
        for question in self.question:
            lines.append(f";; QUESTION\n{question}")
        for title, section in (
            ("ANSWER", self.answer),
            ("AUTHORITY", self.authority),
            ("ADDITIONAL", self.additional),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend(str(rrset) for rrset in section)
        for ede in self.extended_errors:
            lines.append(f";; {ede}")
        return "\n".join(lines)


#: What :meth:`Message.truncated` drops from its OPT, a step at a time.
_TC_SHEDS = (
    lambda options: [ExtendedError.make(o.info_code) if isinstance(o, ExtendedError) else o for o in options],
    lambda options: [o for o in options if not isinstance(o, ExtendedError)],
    lambda options: [],
)


def _read_section(
    reader: WireReader, count: int, message: Message, is_additional: bool
) -> list[RRset]:
    # (owner, TYPE, CLASS) -> [rdtype, rdclass, ttl, rdatas], in order
    # of first appearance; each group becomes one RRset at the end.
    groups: dict[tuple[Name, int, int], list] = {}
    for _ in range(count):
        name = reader.read_name()
        rdtype_value = reader.read_u16()
        rdclass_value = reader.read_u16()
        ttl = reader.read_u32()
        rdlength = reader.read_u16()
        if is_additional and rdtype_value == int(RdataType.OPT):
            if message.edns is not None:
                raise FormError("more than one OPT record")
            if not name.is_root():
                raise FormError("OPT owner is not the root")  # RFC 6891 section 6.1.2
            rdata = reader.read_bytes(rdlength)
            message.edns = Edns.from_opt_fields(rdclass_value, ttl, rdata)
            continue
        try:
            rdtype = RdataType(rdtype_value)
        except ValueError:
            rdtype = rdtype_value  # type: ignore[assignment]
        rdata = Rdata.parse(rdtype, reader, rdlength)
        key = (name, rdtype_value, rdclass_value)
        group = groups.get(key)
        if group is None:
            try:
                rdclass = RdataClass(rdclass_value)
            except ValueError as exc:
                raise FormError(f"unknown RR class {rdclass_value}") from exc
            groups[key] = [rdtype, rdclass, ttl, [rdata]]
        else:
            # RFC 2181 section 5.2: an RRset's TTLs should agree; the
            # set keeps the least of them.
            group[2] = min(group[2], ttl)
            group[3].append(rdata)
    return [
        RRset(name, rdtype, ttl, rdclass, tuple(dict.fromkeys(rdatas)))
        for (name, _, _), (rdtype, rdclass, ttl, rdatas) in groups.items()
    ]
