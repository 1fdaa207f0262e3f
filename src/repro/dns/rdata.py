"""Rdata implementations for the common RR types.

Each rdata class knows how to encode itself (normal wire form and the
DNSSEC canonical form used for signing), decode itself from wire, and
print itself in presentation format.  DNSSEC record types live in
:mod:`repro.dns.dnssec_records`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Callable, ClassVar

from .exceptions import FormError, UnknownRdataType
from .name import Name
from .types import RdataType
from .wire import ShapeRecorder, WireReader, WireWriter


@dataclass(frozen=True)
class Rdata:
    """Base class for all rdata.

    Subclasses set :attr:`rdtype` and register with :func:`register_rdata`.
    Instances are immutable and hashable so they can live in RRset sets.
    """

    rdtype: ClassVar[RdataType]

    _parsers: ClassVar[dict[RdataType, Callable[[WireReader, int], "Rdata"]]] = {}

    # -- wire --------------------------------------------------------------

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        raise NotImplementedError

    def to_wire(self, canonical: bool = False) -> bytes:
        writer = WireWriter(enable_compression=False)
        self.write(writer, canonical=canonical)
        return writer.getvalue()

    def wire_shape(self):
        """What :meth:`write` puts in a message, minus the bytes (see
        :class:`~repro.dns.wire.ShapeRecorder`).  Pure function of this
        immutable rdata, so it is recorded once and kept on the
        instance."""
        try:
            # Plain attribute access: reading ``__dict__`` would make
            # CPython materialise one (64 B) for every served rdata.
            return self._wire_shape
        except AttributeError:
            recorder = ShapeRecorder()
            self.write(recorder)
            shape = recorder.shape()
            object.__setattr__(self, "_wire_shape", shape)
            return shape

    @classmethod
    def parse(cls, rdtype: RdataType, reader: WireReader, rdlength: int) -> "Rdata":
        parser = cls._parsers.get(rdtype)
        if parser is None:
            return GenericRdata.read(reader, rdlength, rdtype)
        end = reader.pos + rdlength
        rdata = parser(reader, rdlength)
        if reader.pos != end:
            raise FormError(
                f"rdata for {rdtype} consumed {reader.pos - (end - rdlength)}"
                f" of {rdlength} octets"
            )
        return rdata

    @classmethod
    def from_wire(cls, rdtype: RdataType, data: bytes) -> "Rdata":
        return cls.parse(rdtype, WireReader(data), len(data))

    # -- presentation --------------------------------------------------------

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


def register_rdata(cls: type) -> type:
    """Class decorator wiring an rdata class into the parse registry."""
    Rdata._parsers[cls.rdtype] = cls.read
    return cls


@dataclass(frozen=True)
class GenericRdata(Rdata):
    """RFC 3597 opaque rdata for types without a specific implementation."""

    rdtype_value: RdataType = RdataType.NONE
    data: bytes = b""

    @property
    def rdtype(self) -> RdataType:  # type: ignore[override]
        return self.rdtype_value

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_bytes(self.data)

    @classmethod
    def read(
        cls, reader: WireReader, rdlength: int, rdtype: RdataType = RdataType.NONE
    ) -> "GenericRdata":
        return cls(rdtype_value=rdtype, data=reader.read_bytes(rdlength))

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


@register_rdata
@dataclass(frozen=True)
class A(Rdata):
    """IPv4 address record."""

    rdtype: ClassVar[RdataType] = RdataType.A
    address: str = "0.0.0.0"

    def __post_init__(self) -> None:
        # Validation and the packed wire form share one parse; rdata is
        # immutable, so the four bytes never go stale.
        object.__setattr__(
            self, "_packed", ipaddress.IPv4Address(self.address).packed
        )

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_bytes(self._packed)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "A":
        if rdlength != 4:
            raise FormError(f"A rdata must be 4 octets, got {rdlength}")
        return cls(address=str(ipaddress.IPv4Address(reader.read_bytes(4))))

    def to_text(self) -> str:
        return self.address


@register_rdata
@dataclass(frozen=True)
class AAAA(Rdata):
    """IPv6 address record."""

    rdtype: ClassVar[RdataType] = RdataType.AAAA
    address: str = "::"

    def __post_init__(self) -> None:
        parsed = ipaddress.IPv6Address(self.address)
        object.__setattr__(self, "address", str(parsed))
        object.__setattr__(self, "_packed", parsed.packed)

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_bytes(self._packed)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise FormError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(address=str(ipaddress.IPv6Address(reader.read_bytes(16))))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class _SingleName(Rdata):
    """Shared implementation for rdata that is exactly one domain name."""

    target: Name = Name.root()

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        if canonical:
            writer.write_bytes(self.target.canonical_wire())
        else:
            writer.write_name(self.target, compress=False)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int):
        return cls(target=reader.read_name())

    def to_text(self) -> str:
        return str(self.target)


@register_rdata
@dataclass(frozen=True)
class NS(_SingleName):
    rdtype: ClassVar[RdataType] = RdataType.NS


@register_rdata
@dataclass(frozen=True)
class CNAME(_SingleName):
    rdtype: ClassVar[RdataType] = RdataType.CNAME


@register_rdata
@dataclass(frozen=True)
class PTR(_SingleName):
    rdtype: ClassVar[RdataType] = RdataType.PTR


@register_rdata
@dataclass(frozen=True)
class SOA(Rdata):
    """Start of authority."""

    rdtype: ClassVar[RdataType] = RdataType.SOA
    mname: Name = Name.root()
    rname: Name = Name.root()
    serial: int = 0
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        if canonical:
            writer.write_bytes(self.mname.canonical_wire())
            writer.write_bytes(self.rname.canonical_wire())
        else:
            writer.write_name(self.mname, compress=False)
            writer.write_name(self.rname, compress=False)
        writer.write_u32(self.serial)
        writer.write_u32(self.refresh)
        writer.write_u32(self.retry)
        writer.write_u32(self.expire)
        writer.write_u32(self.minimum)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SOA":
        return cls(
            mname=reader.read_name(),
            rname=reader.read_name(),
            serial=reader.read_u32(),
            refresh=reader.read_u32(),
            retry=reader.read_u32(),
            expire=reader.read_u32(),
            minimum=reader.read_u32(),
        )

    def to_text(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} {self.refresh}"
            f" {self.retry} {self.expire} {self.minimum}"
        )


@register_rdata
@dataclass(frozen=True)
class MX(Rdata):
    rdtype: ClassVar[RdataType] = RdataType.MX
    preference: int = 0
    exchange: Name = Name.root()

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u16(self.preference)
        if canonical:
            writer.write_bytes(self.exchange.canonical_wire())
        else:
            writer.write_name(self.exchange, compress=False)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "MX":
        return cls(preference=reader.read_u16(), exchange=reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange}"


@register_rdata
@dataclass(frozen=True)
class TXT(Rdata):
    rdtype: ClassVar[RdataType] = RdataType.TXT
    strings: tuple[bytes, ...] = (b"",)

    @classmethod
    def from_text_value(cls, *texts: str) -> "TXT":
        return cls(strings=tuple(t.encode("utf-8") for t in texts))

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        for chunk in self.strings:
            if len(chunk) > 255:
                raise FormError("TXT string exceeds 255 octets")
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "TXT":
        end = reader.pos + rdlength
        strings = []
        while reader.pos < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        return cls(strings=tuple(strings))

    def to_text(self) -> str:
        return " ".join('"%s"' % s.decode("utf-8", "replace") for s in self.strings)


@register_rdata
@dataclass(frozen=True)
class SRV(Rdata):
    rdtype: ClassVar[RdataType] = RdataType.SRV
    priority: int = 0
    weight: int = 0
    port: int = 0
    target: Name = Name.root()

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u16(self.priority)
        writer.write_u16(self.weight)
        writer.write_u16(self.port)
        if canonical:
            writer.write_bytes(self.target.canonical_wire())
        else:
            writer.write_name(self.target, compress=False)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "SRV":
        return cls(
            priority=reader.read_u16(),
            weight=reader.read_u16(),
            port=reader.read_u16(),
            target=reader.read_name(),
        )

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target}"


@register_rdata
@dataclass(frozen=True)
class CAA(Rdata):
    rdtype: ClassVar[RdataType] = RdataType.CAA
    flags: int = 0
    tag: bytes = b"issue"
    value: bytes = b""

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u8(self.flags)
        writer.write_u8(len(self.tag))
        writer.write_bytes(self.tag)
        writer.write_bytes(self.value)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "CAA":
        end = reader.pos + rdlength
        flags = reader.read_u8()
        taglen = reader.read_u8()
        tag = reader.read_bytes(taglen)
        value = reader.read_bytes(end - reader.pos)
        return cls(flags=flags, tag=tag, value=value)

    def to_text(self) -> str:
        return f'{self.flags} {self.tag.decode()} "{self.value.decode("utf-8", "replace")}"'


def rdata_class_for(rdtype: RdataType) -> Callable[[WireReader, int], Rdata]:
    parser = Rdata._parsers.get(rdtype)
    if parser is None:
        raise UnknownRdataType(str(rdtype))
    return parser
