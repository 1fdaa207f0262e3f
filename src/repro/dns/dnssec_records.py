"""DNSSEC resource record types (RFC 4034, RFC 5155).

These are pure data carriers; signing, digesting, and validation logic
live in :mod:`repro.dnssec`.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import ClassVar, Iterable

from .exceptions import FormError
from .name import Name
from .rdata import Rdata, register_rdata
from .types import RdataType
from .wire import WireReader, WireWriter

# -- type bitmaps (RFC 4034 section 4.1.2) -----------------------------------


def encode_type_bitmap(types: Iterable[RdataType | int]) -> bytes:
    """Encode a set of RR types into NSEC/NSEC3 window-block bitmap form."""
    values = sorted({int(t) for t in types})
    out = bytearray()
    window = -1
    bitmap = bytearray()
    for value in values:
        win, bit = value >> 8, value & 0xFF
        if win != window:
            if window >= 0:
                out.append(window)
                out.append(len(bitmap))
                out += bitmap
            window = win
            bitmap = bytearray()
        byte_index = bit >> 3
        while len(bitmap) <= byte_index:
            bitmap.append(0)
        bitmap[byte_index] |= 0x80 >> (bit & 0x07)
    if window >= 0:
        out.append(window)
        out.append(len(bitmap))
        out += bitmap
    return bytes(out)


def decode_type_bitmap(data: bytes) -> tuple[int, ...]:
    """Decode window-block bitmap form back into a sorted tuple of types."""
    types: list[int] = []
    pos = 0
    while pos < len(data):
        if pos + 2 > len(data):
            raise FormError("truncated type bitmap window header")
        window = data[pos]
        length = data[pos + 1]
        pos += 2
        if length == 0 or length > 32 or pos + length > len(data):
            raise FormError("bad type bitmap window length")
        for i in range(length):
            byte = data[pos + i]
            for bit in range(8):
                if byte & (0x80 >> bit):
                    types.append((window << 8) | (i << 3) | bit)
        pos += length
    return tuple(types)


def _bitmap_to_text(types: tuple[int, ...]) -> str:
    names = []
    for value in types:
        try:
            names.append(RdataType(value).name)
        except ValueError:
            names.append(f"TYPE{value}")
    return " ".join(names)


# -- DNSKEY --------------------------------------------------------------------

ZONE_KEY_FLAG = 0x0100  # bit 7: this is a zone key (RFC 4034 section 2.1.1)
SEP_FLAG = 0x0001  # bit 15: secure entry point (KSK convention)
REVOKE_FLAG = 0x0080

DNSKEY_PROTOCOL = 3  # the only legal value


@register_rdata
@dataclass(frozen=True)
class DNSKEY(Rdata):
    """Public key record.  ``flags`` 256 = ZSK, 257 = KSK by convention."""

    rdtype: ClassVar[RdataType] = RdataType.DNSKEY
    flags: int = ZONE_KEY_FLAG
    protocol: int = DNSKEY_PROTOCOL
    algorithm: int = 0
    key: bytes = b""

    @property
    def is_zone_key(self) -> bool:
        return bool(self.flags & ZONE_KEY_FLAG)

    @property
    def is_sep(self) -> bool:
        return bool(self.flags & SEP_FLAG)

    @property
    def is_revoked(self) -> bool:
        return bool(self.flags & REVOKE_FLAG)

    def key_tag(self) -> int:
        """RFC 4034 Appendix B key tag over the rdata.

        Pure function of this immutable rdata, so the first computation
        is memoized on the instance — validators recompute it for every
        signature they check.
        """
        cached = getattr(self, "_key_tag", None)
        if cached is not None:
            return cached
        data = self.to_wire()
        total = 0
        for index, byte in enumerate(data):
            total += byte if index & 1 else byte << 8
        total += (total >> 16) & 0xFFFF
        tag = total & 0xFFFF
        object.__setattr__(self, "_key_tag", tag)
        return tag

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u16(self.flags)
        writer.write_u8(self.protocol)
        writer.write_u8(self.algorithm)
        writer.write_bytes(self.key)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DNSKEY":
        if rdlength < 4:
            raise FormError("DNSKEY rdata shorter than 4 octets")
        return cls(
            flags=reader.read_u16(),
            protocol=reader.read_u8(),
            algorithm=reader.read_u8(),
            key=reader.read_bytes(rdlength - 4),
        )

    def to_text(self) -> str:
        b64 = base64.b64encode(self.key).decode()
        return f"{self.flags} {self.protocol} {self.algorithm} {b64}"


# -- DS -------------------------------------------------------------------------


@register_rdata
@dataclass(frozen=True)
class DS(Rdata):
    """Delegation signer: a digest of the child's KSK, held by the parent."""

    rdtype: ClassVar[RdataType] = RdataType.DS
    key_tag: int = 0
    algorithm: int = 0
    digest_type: int = 0
    digest: bytes = b""

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u16(self.key_tag)
        writer.write_u8(self.algorithm)
        writer.write_u8(self.digest_type)
        writer.write_bytes(self.digest)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "DS":
        if rdlength < 4:
            raise FormError("DS rdata shorter than 4 octets")
        return cls(
            key_tag=reader.read_u16(),
            algorithm=reader.read_u8(),
            digest_type=reader.read_u8(),
            digest=reader.read_bytes(rdlength - 4),
        )

    def to_text(self) -> str:
        return f"{self.key_tag} {self.algorithm} {self.digest_type} {self.digest.hex().upper()}"


# -- RRSIG -----------------------------------------------------------------------


@register_rdata
@dataclass(frozen=True)
class RRSIG(Rdata):
    """Signature over one RRset."""

    rdtype: ClassVar[RdataType] = RdataType.RRSIG
    type_covered: RdataType = RdataType.A
    algorithm: int = 0
    labels: int = 0
    original_ttl: int = 0
    expiration: int = 0  # seconds since epoch
    inception: int = 0
    key_tag: int = 0
    signer: Name = Name.root()
    signature: bytes = b""

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u16(int(self.type_covered))
        writer.write_u8(self.algorithm)
        writer.write_u8(self.labels)
        writer.write_u32(self.original_ttl)
        writer.write_u32(self.expiration)
        writer.write_u32(self.inception)
        writer.write_u16(self.key_tag)
        if canonical:
            writer.write_bytes(self.signer.canonical_wire())
        else:
            writer.write_name(self.signer, compress=False)
        writer.write_bytes(self.signature)

    def rdata_without_signature(self) -> bytes:
        """The RRSIG rdata prefix that is included in the signed data.

        Pure function of this immutable rdata, so it is made once and
        kept on the instance: a validator reads it for every check."""
        try:
            return self._unsigned
        except AttributeError:
            writer = WireWriter(enable_compression=False)
            writer.write_u16(int(self.type_covered))
            writer.write_u8(self.algorithm)
            writer.write_u8(self.labels)
            writer.write_u32(self.original_ttl)
            writer.write_u32(self.expiration)
            writer.write_u32(self.inception)
            writer.write_u16(self.key_tag)
            writer.write_bytes(self.signer.canonical_wire())
            unsigned = writer.getvalue()
            object.__setattr__(self, "_unsigned", unsigned)
            return unsigned

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "RRSIG":
        end = reader.pos + rdlength
        type_covered = reader.read_u16()
        try:
            covered = RdataType(type_covered)
        except ValueError:
            covered = type_covered  # type: ignore[assignment]
        algorithm = reader.read_u8()
        labels = reader.read_u8()
        original_ttl = reader.read_u32()
        expiration = reader.read_u32()
        inception = reader.read_u32()
        key_tag = reader.read_u16()
        signer = reader.read_name()
        signature = reader.read_bytes(end - reader.pos)
        return cls(
            type_covered=covered,
            algorithm=algorithm,
            labels=labels,
            original_ttl=original_ttl,
            expiration=expiration,
            inception=inception,
            key_tag=key_tag,
            signer=signer,
            signature=signature,
        )

    def to_text(self) -> str:
        b64 = base64.b64encode(self.signature).decode()
        return (
            f"{RdataType(self.type_covered).name} {self.algorithm} {self.labels}"
            f" {self.original_ttl} {self.expiration} {self.inception}"
            f" {self.key_tag} {self.signer} {b64}"
        )


# -- NSEC / NSEC3 -----------------------------------------------------------------


@register_rdata
@dataclass(frozen=True)
class NSEC(Rdata):
    """Authenticated denial of existence (plain form)."""

    rdtype: ClassVar[RdataType] = RdataType.NSEC
    next_name: Name = Name.root()
    types: tuple[int, ...] = ()

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        if canonical:
            writer.write_bytes(self.next_name.canonical_wire())
        else:
            writer.write_name(self.next_name, compress=False)
        writer.write_bytes(encode_type_bitmap(self.types))

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NSEC":
        end = reader.pos + rdlength
        next_name = reader.read_name()
        bitmap = reader.read_bytes(end - reader.pos)
        return cls(next_name=next_name, types=decode_type_bitmap(bitmap))

    def to_text(self) -> str:
        return f"{self.next_name} {_bitmap_to_text(self.types)}"


@register_rdata
@dataclass(frozen=True)
class NSEC3(Rdata):
    """Hashed authenticated denial of existence (RFC 5155).

    The owner name of an NSEC3 record is the base32hex hash; ``next_hash``
    here is the raw (binary) hash of the next name in the chain.
    """

    rdtype: ClassVar[RdataType] = RdataType.NSEC3
    hash_algorithm: int = 1  # 1 = SHA-1
    flags: int = 0  # bit 0 = opt-out
    iterations: int = 0
    salt: bytes = b""
    next_hash: bytes = b""
    types: tuple[int, ...] = ()

    @property
    def opt_out(self) -> bool:
        return bool(self.flags & 0x01)

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u8(self.hash_algorithm)
        writer.write_u8(self.flags)
        writer.write_u16(self.iterations)
        writer.write_u8(len(self.salt))
        writer.write_bytes(self.salt)
        writer.write_u8(len(self.next_hash))
        writer.write_bytes(self.next_hash)
        writer.write_bytes(encode_type_bitmap(self.types))

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NSEC3":
        end = reader.pos + rdlength
        hash_algorithm = reader.read_u8()
        flags = reader.read_u8()
        iterations = reader.read_u16()
        salt = reader.read_bytes(reader.read_u8())
        next_hash = reader.read_bytes(reader.read_u8())
        bitmap = reader.read_bytes(end - reader.pos)
        return cls(
            hash_algorithm=hash_algorithm,
            flags=flags,
            iterations=iterations,
            salt=salt,
            next_hash=next_hash,
            types=decode_type_bitmap(bitmap),
        )

    def to_text(self) -> str:
        from ..dnssec.nsec3 import base32hex_encode

        salt = self.salt.hex().upper() if self.salt else "-"
        return (
            f"{self.hash_algorithm} {self.flags} {self.iterations} {salt}"
            f" {base32hex_encode(self.next_hash)} {_bitmap_to_text(self.types)}"
        )


@register_rdata
@dataclass(frozen=True)
class NSEC3PARAM(Rdata):
    """Advertises the NSEC3 parameters in use at the zone apex."""

    rdtype: ClassVar[RdataType] = RdataType.NSEC3PARAM
    hash_algorithm: int = 1
    flags: int = 0
    iterations: int = 0
    salt: bytes = b""

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_u8(self.hash_algorithm)
        writer.write_u8(self.flags)
        writer.write_u16(self.iterations)
        writer.write_u8(len(self.salt))
        writer.write_bytes(self.salt)

    @classmethod
    def read(cls, reader: WireReader, rdlength: int) -> "NSEC3PARAM":
        hash_algorithm = reader.read_u8()
        flags = reader.read_u8()
        iterations = reader.read_u16()
        salt = reader.read_bytes(reader.read_u8())
        return cls(
            hash_algorithm=hash_algorithm,
            flags=flags,
            iterations=iterations,
            salt=salt,
        )

    def to_text(self) -> str:
        salt = self.salt.hex().upper() if self.salt else "-"
        return f"{self.hash_algorithm} {self.flags} {self.iterations} {salt}"
