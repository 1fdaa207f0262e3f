"""The Miller-Rabin test as it was before the gcd sieve (test oracle).

``repro.dnssec.rsa._is_probable_prime`` may decide a witness round on a
divisor of the candidate first; this is the plain test it must agree
with, verdict for verdict and draw for draw, kept verbatim so the two
can be compared.
"""

from __future__ import annotations

import random

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
