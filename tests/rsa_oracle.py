"""The Miller-Rabin test as it was before the gcd sieve (test oracle),
and the RSA checks a testbed's zones serve.

``repro.dnssec.rsa._is_probable_prime`` may decide a witness round on a
divisor of the candidate first; this is the plain test it must agree
with, verdict for verdict and draw for draw, kept verbatim so the two
can be compared.  :func:`served_rsa_checks` lists the signature checks
the ``cryptography`` differential and the public-operation memo rows run.
"""

from __future__ import annotations

import random

from repro.dns.dnssec_records import DNSKEY, RRSIG
from repro.dns.types import RdataType
from repro.dnssec.keys import RSA_DIGESTS
from repro.dnssec.signer import signed_data
from repro.net.fabric import NetworkFabric

from .zone_digest import served_zones

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Miller-Rabin
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def served_rsa_checks(
    fabric: NetworkFabric,
) -> tuple[list[tuple[DNSKEY, bytes, bytes]], list[RRSIG]]:
    """Every RSA RRSIG the zones on ``fabric`` serve, paired with each
    DNSKEY of the same algorithm at its zone's apex, as ``(dnskey, signed
    data, signature)``; and apart, the RRSIGs whose covered RRset the zone
    does not hold (nothing to check them over).  Reading the RRSIGs makes
    every signature of those zones."""
    checks: list[tuple[DNSKEY, bytes, bytes]] = []
    uncovered: list[RRSIG] = []
    for zone in served_zones(fabric):
        apex = zone.find(zone.origin, RdataType.DNSKEY)
        apex_keys = apex.rdatas if apex is not None else []
        for rrset in zone.all_rrsets():
            if rrset.rdtype != RdataType.RRSIG:
                continue
            for rrsig in rrset.rdatas:
                if rrsig.algorithm not in RSA_DIGESTS:
                    continue
                covered = zone.find(rrset.name, rrsig.type_covered)
                if covered is None:
                    uncovered.append(rrsig)
                    continue
                message = signed_data(covered, rrsig)
                checks.extend(
                    (dnskey, message, rrsig.signature)
                    for dnskey in apex_keys
                    if dnskey.algorithm == rrsig.algorithm
                )
    return checks, uncovered
