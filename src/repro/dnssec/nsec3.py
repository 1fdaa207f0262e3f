"""NSEC3 hashing and denial-of-existence machinery (RFC 5155).

Covers the iterated-SHA-1 owner-name hash, base32hex (no padding)
encoding used for NSEC3 owner labels, chain interval logic, and the
closest-encloser computation validators use to check NXDOMAIN proofs.
"""

from __future__ import annotations

import base64
import hashlib

from ..dns.name import Name

_B32HEX_ALPHABET = "0123456789abcdefghijklmnopqrstuv"
_B32HEX_REVERSE = {char: index for index, char in enumerate(_B32HEX_ALPHABET)}
_B32HEX_REVERSE.update({char.upper(): index for index, char in enumerate(_B32HEX_ALPHABET)})

#: RFC 9276: iteration counts above 0 MUST NOT be used; validators treat
#: high counts as insecure or SERVFAIL.  The paper's nsec3-iter-200 case
#: uses 200 and all seven tested systems still answered without an EDE.
RFC9276_MAX_ITERATIONS = 0

#: Operational cap most validators apply before downgrading to insecure.
TYPICAL_ITERATION_LIMIT = 150


def base32hex_encode(data: bytes) -> str:
    """Base32 with the "extended hex" alphabet, lower case, no padding
    (RFC 4648 §7)."""
    return base64.b32hexencode(data).rstrip(b"=").decode("ascii").lower()


def base32hex_decode(text: str) -> bytes:
    value = 0
    bits = 0
    out = bytearray()
    for char in text:
        if char not in _B32HEX_REVERSE:
            raise ValueError(f"invalid base32hex character {char!r}")
        value = (value << 5) | _B32HEX_REVERSE[char]
        bits += 5
        if bits >= 8:
            bits -= 8
            out.append((value >> bits) & 0xFF)
    return bytes(out)


def nsec3_hash(name: Name, salt: bytes, iterations: int, algorithm: int = 1) -> bytes:
    """IH(salt, x, k) per RFC 5155 section 5 (algorithm 1 = SHA-1)."""
    if algorithm != 1:
        raise ValueError(f"unknown NSEC3 hash algorithm {algorithm}")
    digest = hashlib.sha1(name.canonical_wire() + salt).digest()
    for _ in range(iterations):
        digest = hashlib.sha1(digest + salt).digest()
    return digest


def nsec3_owner(name: Name, zone: Name, salt: bytes, iterations: int) -> Name:
    """Owner name of the NSEC3 record covering ``name`` in ``zone``."""
    digest = nsec3_hash(name, salt, iterations)
    return Name.from_text(base32hex_encode(digest), origin=zone)


def hash_covers(owner_hash: bytes, next_hash: bytes, target: bytes) -> bool:
    """True when ``target`` falls in the open interval (owner, next).

    Handles the wrap-around interval of the chain's last record (where
    next < owner) and the degenerate single-record chain (owner == next
    covers everything except itself).
    """
    if owner_hash == next_hash:
        return target != owner_hash
    if owner_hash < next_hash:
        return owner_hash < target < next_hash
    return target > owner_hash or target < next_hash


def closest_encloser_candidates(qname: Name, zone: Name) -> list[Name]:
    """Names to probe for the closest encloser, deepest first.

    For ``a.b.example.`` in zone ``example.`` this yields
    ``a.b.example.``, ``b.example.``, ``example.``.
    """
    if not qname.is_subdomain_of(zone):
        raise ValueError(f"{qname} not within {zone}")
    candidates = []
    current = qname
    while True:
        candidates.append(current)
        if current == zone:
            break
        current = current.parent()
    return candidates
