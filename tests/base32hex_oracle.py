"""The base32hex encoder as it was before ``base64.b32hexencode`` (test
oracle).

``repro.dnssec.nsec3.base32hex_encode`` now strips the padding off the
standard library's encoding and lowers its case; this is the bit loop
it must agree with, output for output, kept verbatim so the two can be
compared.
"""

from __future__ import annotations

_B32HEX_ALPHABET = "0123456789abcdefghijklmnopqrstuv"


def base32hex_encode(data: bytes) -> str:
    """Base32 with the "extended hex" alphabet, no padding (RFC 4648 §7)."""
    bits = 0
    value = 0
    out = []
    for byte in data:
        value = (value << 8) | byte
        bits += 8
        while bits >= 5:
            bits -= 5
            out.append(_B32HEX_ALPHABET[(value >> bits) & 0x1F])
    if bits:
        out.append(_B32HEX_ALPHABET[(value << (5 - bits)) & 0x1F])
    return "".join(out)
