"""EDNS(0) — the OPT pseudo resource record and its options (RFC 6891).

The OPT record abuses the fixed RR fields: CLASS carries the requester's
UDP payload size, and the TTL packs the extended-RCODE bits, the EDNS
version, and the DO ("DNSSEC OK") flag.  Options live in the RDATA as
(OPTION-CODE, OPTION-LENGTH, OPTION-DATA) triples; RFC 8914's Extended
DNS Error is option code 15 and is implemented in :mod:`repro.dns.ede`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from .exceptions import OptionError
from .wire import WireReader, WireWriter


class OptionCode:
    """Well-known EDNS option codes."""

    NSID = 3
    CLIENT_SUBNET = 8
    COOKIE = 10
    PADDING = 12
    EDE = 15


@dataclass(frozen=True)
class EdnsOption:
    """A generic (unparsed) EDNS option.

    Subclasses register themselves in :attr:`_registry` keyed by option
    code so :meth:`parse` can produce typed options.
    """

    code: int
    data: bytes = b""

    _registry: ClassVar[dict[int, Callable[[bytes], "EdnsOption"]]] = {}

    @classmethod
    def register(cls, code: int, parser: Callable[[bytes], "EdnsOption"]) -> None:
        cls._registry[code] = parser

    @classmethod
    def parse(cls, code: int, data: bytes) -> "EdnsOption":
        parser = cls._registry.get(code)
        if parser is not None:
            return parser(data)
        return cls(code=code, data=data)

    def to_wire_data(self) -> bytes:
        return self.data


@dataclass(frozen=True)
class CookieOption(EdnsOption):
    """DNS Cookies (RFC 7873) — carried but not enforced by this stack."""

    code: int = OptionCode.COOKIE
    data: bytes = b""

    @property
    def client_cookie(self) -> bytes:
        return self.data[:8]

    @property
    def server_cookie(self) -> bytes:
        return self.data[8:]


@dataclass(frozen=True)
class PaddingOption(EdnsOption):
    """EDNS padding (RFC 7830)."""

    code: int = OptionCode.PADDING
    data: bytes = b""

    @classmethod
    def of_length(cls, length: int) -> "PaddingOption":
        return cls(data=b"\x00" * length)


EdnsOption.register(OptionCode.COOKIE, lambda d: CookieOption(data=d))
EdnsOption.register(OptionCode.PADDING, lambda d: PaddingOption(data=d))


#: Default advertised UDP payload size, per current operational guidance.
DEFAULT_PAYLOAD = 1232


@dataclass
class Edns:
    """The EDNS state of one message (decoded OPT record)."""

    payload: int = DEFAULT_PAYLOAD
    extended_rcode_bits: int = 0  # upper 8 bits of the 12-bit RCODE
    version: int = 0
    dnssec_ok: bool = False
    options: list[EdnsOption] = field(default_factory=list)

    def option(self, code: int) -> EdnsOption | None:
        """First option with the given code, or None."""
        for opt in self.options:
            if opt.code == code:
                return opt
        return None

    def options_with_code(self, code: int) -> list[EdnsOption]:
        return [opt for opt in self.options if opt.code == code]

    # -- wire ------------------------------------------------------------------

    def write(self, writer: WireWriter, extended_rcode_bits: int | None = None) -> None:
        """Append the OPT RR for this EDNS state to ``writer``.

        A message passes the upper bits of *its* RCODE; they are encoded,
        not stored — ``extended_rcode_bits`` holds what a parse found.
        """
        if extended_rcode_bits is None:
            extended_rcode_bits = self.extended_rcode_bits
        writer.write_u8(0)  # root owner name
        writer.write_u16(41)  # TYPE = OPT
        writer.write_u16(self.payload)  # CLASS = payload size
        ttl = (
            ((extended_rcode_bits & 0xFF) << 24)
            | ((self.version & 0xFF) << 16)
            | (0x8000 if self.dnssec_ok else 0)
        )
        writer.write_u32(ttl)
        rdlen_at = writer.offset
        writer.write_u16(0)
        start = writer.offset
        for opt in self.options:
            data = opt.to_wire_data()
            writer.write_u16(opt.code)
            writer.write_u16(len(data))
            writer.write_bytes(data)
        writer.patch_u16(rdlen_at, writer.offset - start)

    def wire_size(self) -> int:
        """Octets :meth:`write` appends: the fixed OPT fields (root
        owner, TYPE, CLASS, TTL, RDLENGTH) plus each option's header
        and data."""
        if not self.options:
            return 11
        return 11 + sum(4 + len(opt.to_wire_data()) for opt in self.options)

    @classmethod
    def from_opt_fields(cls, klass: int, ttl: int, rdata: bytes) -> "Edns":
        """Decode the OPT record's overloaded fixed fields and options."""
        edns = cls(
            payload=klass,
            extended_rcode_bits=(ttl >> 24) & 0xFF,
            version=(ttl >> 16) & 0xFF,
            dnssec_ok=bool(ttl & 0x8000),
        )
        reader = WireReader(rdata)
        while not reader.at_end():
            if reader.remaining() < 4:
                raise OptionError("truncated EDNS option header")
            code = reader.read_u16()
            length = reader.read_u16()
            data = reader.read_bytes(length)
            edns.options.append(EdnsOption.parse(code, data))
        return edns
