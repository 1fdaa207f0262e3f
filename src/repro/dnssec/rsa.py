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
import os
import random
import subprocess
import sys
from collections.abc import Iterable
from contextlib import ExitStack
from dataclasses import dataclass

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
    pair = (bits, seed)
    key = _seeded.pop(pair, None) or _generate_keypair(bits, seed)
    _remember(pair, key)
    return key


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


#: Seeded keys, least recently asked for first.  The testbed's zones
#: hold 88 pairs; every further ``build_testbed()`` asks for them again.
_seeded: dict[tuple[int, int], RsaPrivateKey] = {}
_SEEDED_MAX = 512


def _remember(pair: tuple[int, int], key: RsaPrivateKey) -> None:
    _seeded[pair] = key
    if len(_seeded) > _SEEDED_MAX:
        del _seeded[next(iter(_seeded))]


#: A helper of :func:`search_keypairs`: loads this file (standard library
#: imports only) by path, reads one ``bits seed`` pair a line and, once
#: all are found, writes each key's eight integers in hex, in order.
_HELPER = """
import dataclasses, importlib.util, sys
spec = importlib.util.spec_from_file_location("_rsa_helper", sys.argv[1])
rsa = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rsa)
keys = [rsa._generate_keypair(*map(int, line.split())) for line in sys.stdin]
sys.stdout.write("".join(
    " ".join(f"{field:x}" for field in dataclasses.astuple(key)) + "\\n" for key in keys
))
"""


#: At most this many shares: the caller's and seven helpers'.  A helper
#: costs about 0.1 s to start and 24 MB.  On a 2-CPU x86-64 host whose
#: affinity mask was made to claim more CPUs (as under a CPU quota), the
#: 88 testbed keys took as long with 64 shares as serially, and with 8
#: about 10 % longer than with 2.
_MAX_SHARES = 8


def _start_helper(pairs: list[tuple[int, int]]) -> subprocess.Popen:
    helper = subprocess.Popen(
        [sys.executable, "-I", "-c", _HELPER, __file__],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        helper.stdin.write("".join(f"{bits} {seed}\n" for bits, seed in pairs))
        helper.stdin.close()
    except OSError:
        with helper:
            helper.kill()
        raise
    return helper


def _checked(line: str, bits: int) -> RsaPrivateKey | None:
    """The key a helper wrote on ``line``, if it is a consistent
    ``bits``-bit key: ``n = pq``, ``ed = 1 mod phi`` and the CRT fields."""
    try:
        key = RsaPrivateKey(*(int(field, 16) for field in line.split()))
        n, d, p, q = key.n, key.d, key.p, key.q
        consistent = (
            n == p * q and n.bit_length() == bits and key.e * d % ((p - 1) * (q - 1)) == 1
            and (key.dp, key.dq, key.qinv * q % p) == (d % (p - 1), d % (q - 1), 1)
        )
    except (TypeError, ValueError, ZeroDivisionError):
        return None
    return key if consistent else None


def search_keypairs(pairs: Iterable[tuple[int, int]]) -> None:
    """Find the key of every seeded ``(bits, seed)`` pair not yet memoised,
    on every CPU this process may use, up to :data:`_MAX_SHARES`: one
    share here, each other share in a helper process running the same
    :func:`_generate_keypair`.  A share whose helper cannot start, or a
    helper's key that is not consistent (:func:`_checked`), is found here
    instead.  One CPU, a frozen interpreter (whose ``sys.executable`` is
    not Python), or fewer than two pairs to find starts nothing."""
    missing = sorted(set(pairs) - _seeded.keys())
    if not missing:
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    share_count = 1 if getattr(sys, "frozen", False) else min(cpus, len(missing), _MAX_SHARES)
    here, *shares = [missing[i::share_count] for i in range(share_count)]
    with ExitStack() as stack:
        helpers = []
        for share in shares:
            try:
                helpers.append((share, stack.enter_context(_start_helper(share))))
            except (OSError, ValueError):
                here += share
        for pair in here:
            _remember(pair, _generate_keypair(*pair))
        for share, helper in helpers:
            lines = helper.stdout.read().splitlines() + [""] * len(share)
            for (bits, seed), line in zip(share, lines):
                _remember((bits, seed), _checked(line, bits) or _generate_keypair(bits, seed))


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


#: Recovered encoded messages ``s^e mod n``, keyed by ``(n, e, signature)``,
#: least recently used first.  A Table 4 matrix checks 75 distinct pairs
#: about 2 000 times; each check still compares against its own message.
_recovered: dict[tuple[int, int, bytes], bytes] = {}
_RECOVERED_MAX = 1024


def verify(
    key: RsaPublicKey, message: bytes, signature: bytes, digest_name: str = "sha256"
) -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; never raises on bad input.

    The public operation is a pure function of ``(key, signature)`` and is
    remembered in :data:`_recovered`; the encoding of ``message`` under
    ``digest_name`` is computed and compared on every call."""
    em_len = key.byte_length
    if len(signature) != em_len:
        return False
    try:
        s = int.from_bytes(signature, "big")
        if s >= key.n:
            return False
        pair = (key.n, key.e, signature)
        em = _recovered.pop(pair, None) or pow(s, key.e, key.n).to_bytes(em_len, "big")
        _recovered[pair] = em
        if len(_recovered) > _RECOVERED_MAX:
            _recovered.pop(next(iter(_recovered)), None)
        expected = _emsa_pkcs1_v15(digest_name, message, em_len)
    except (ValueError, KeyError):
        return False
    return em == expected
