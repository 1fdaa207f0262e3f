"""Pure-Python RSA with PKCS#1 v1.5 signatures (RFC 8017, RFC 3110).

Implements everything DNSSEC's RSA algorithms need: probabilistic prime
generation (Miller–Rabin), signing/verification with EMSA-PKCS1-v1_5
encoding, and the RFC 3110 DNSKEY public-key wire format (exponent
length prefix + exponent + modulus).

Key sizes are a simulation knob: the testbed defaults to 1024-bit keys
(fast enough to sign dozens of zones), the wild-scan tier shares a pool
of 512-bit keys.  Both exercise the identical code path as 2048-bit
production keys.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache

# DigestInfo DER prefixes for EMSA-PKCS1-v1_5 (RFC 8017 section 9.2 notes).
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
    "sha512": bytes.fromhex("3051300d060960864801650304020305000440"),
    "md5": bytes.fromhex("3020300c06082a864886f70d020505000410"),
}

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


#: Bound of the gcd sieve: every prime in (149, 2^14] divides
#: :data:`_SIEVE_PRODUCT`.
_SIEVE_BOUND = 1 << 14
_SIEVE_PRODUCT = math.prod(
    p for p in range(151, _SIEVE_BOUND, 2) if all(p % q for q in range(3, 128, 2))
)


def _round_passes(x: int, r: int, n: int) -> bool:
    """One Miller-Rabin round on ``x = a^d mod n``, where ``n - 1 = d 2^r``."""
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    """Trial division by the primes <= 149, then ``rounds`` Miller-Rabin
    rounds, each on a witness drawn from ``rng``.

    A round accepts on ``a^d = 1`` or ``a^(d 2^j) = -1`` mod the
    candidate, and each also holds mod any divisor of it.  So a round
    first runs mod ``m = gcd(candidate, _SIEVE_PRODUCT)``: failing there
    decides it without the full-size exponentiation.  The verdict and
    the draws from ``rng`` are those of the full rounds alone, so every
    seeded key stays what it was."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    m = math.gcd(candidate, _SIEVE_PRODUCT)
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        if m > 1 and not _round_passes(pow(a, d, m), r, m):
            return False
        if not _round_passes(pow(a, d, candidate), r, candidate):
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    # Top two bits set so the product of two such primes always has
    # exactly 2*bits bits (validators check modulus sizes).
    high = (1 << (bits - 1)) | (1 << (bits - 2))
    while True:
        candidate = rng.getrandbits(bits) | high | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_dnskey_format(self) -> bytes:
        """RFC 3110 wire format: exponent length, exponent, modulus."""
        exp = self.e.to_bytes((self.e.bit_length() + 7) // 8 or 1, "big")
        mod = self.n.to_bytes(self.byte_length, "big")
        if len(exp) <= 255:
            return bytes([len(exp)]) + exp + mod
        return b"\x00" + len(exp).to_bytes(2, "big") + exp + mod

    @classmethod
    def from_dnskey_format(cls, data: bytes) -> "RsaPublicKey":
        if not data:
            raise ValueError("empty RSA public key")
        if data[0] != 0:
            exp_len = data[0]
            offset = 1
        else:
            if len(data) < 3:
                raise ValueError("truncated RSA exponent length")
            exp_len = int.from_bytes(data[1:3], "big")
            offset = 3
        if offset + exp_len > len(data):
            raise ValueError("truncated RSA exponent")
        e = int.from_bytes(data[offset : offset + exp_len], "big")
        n = int.from_bytes(data[offset + exp_len :], "big")
        if n == 0:
            raise ValueError("zero RSA modulus")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """``(n, e, d)`` plus the RFC 8017 section 3.2 CRT quintuple."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int  # d mod (p - 1)
    dq: int  # d mod (q - 1)
    qinv: int  # q^-1 mod p

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


def generate_keypair(bits: int = 1024, seed: int | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair.  Deterministic for a given ``seed``, so
    seeded keys are generated once per process (the key is immutable);
    ``seed=None`` draws fresh entropy every call."""
    if seed is None:
        return _generate_keypair(bits, None)
    return _seeded_keypair(bits, seed)


def _generate_keypair(bits: int, seed: int | None) -> RsaPrivateKey:
    rng = random.Random(seed)
    e = 65537
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue
        if n.bit_length() == bits:
            return RsaPrivateKey(
                n=n, e=e, d=d, p=p, q=q,
                dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p),
            )


#: The testbed's zones hold 88 distinct (bits, seed) pairs, 7 s of
#: Miller-Rabin; every further ``build_testbed()`` in the process asks
#: for exactly those again.
_seeded_keypair = lru_cache(maxsize=512)(_generate_keypair)


def _emsa_pkcs1_v15(digest_name: str, message: bytes, em_len: int) -> bytes:
    prefix = _DIGEST_INFO_PREFIX[digest_name]
    digest = hashlib.new(digest_name, message).digest()
    t = prefix + digest
    if em_len < len(t) + 11:
        raise ValueError("RSA modulus too small for digest")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def sign(key: RsaPrivateKey, message: bytes, digest_name: str = "sha256") -> bytes:
    """RSASSA-PKCS1-v1_5 signature over ``message``."""
    em = _emsa_pkcs1_v15(digest_name, message, key.byte_length)
    m = int.from_bytes(em, "big")
    # RFC 8017 section 5.1.2 step 2.b: two half-size exponentiations
    # recombined (Garner); equals pow(m, key.d, key.n).
    s1 = pow(m, key.dp, key.p)
    s2 = pow(m, key.dq, key.q)
    s = s2 + key.q * ((s1 - s2) * key.qinv % key.p)
    return s.to_bytes(key.byte_length, "big")


def verify(
    key: RsaPublicKey, message: bytes, signature: bytes, digest_name: str = "sha256"
) -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; never raises on bad input."""
    if len(signature) != key.byte_length:
        return False
    try:
        s = int.from_bytes(signature, "big")
        if s >= key.n:
            return False
        m = pow(s, key.e, key.n)
        em = m.to_bytes(key.byte_length, "big")
        expected = _emsa_pkcs1_v15(digest_name, message, key.byte_length)
    except (ValueError, KeyError):
        return False
    return em == expected
