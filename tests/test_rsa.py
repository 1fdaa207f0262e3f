"""Pure-Python RSA: keygen, PKCS#1 v1.5 signatures, RFC 3110 key format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnssec import rsa
from repro.dnssec.keys import verify_signature

from .rsa_oracle import is_probable_prime as reference_is_probable_prime
from .rsa_oracle import served_rsa_checks


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(bits=512, seed=12345)


class TestKeygen:
    def test_deterministic_for_seed(self):
        a = rsa.generate_keypair(bits=512, seed=1)
        b = rsa.generate_keypair(bits=512, seed=1)
        assert a.n == b.n and a.d == b.d

    def test_different_seeds_differ(self):
        assert rsa.generate_keypair(512, seed=1).n != rsa.generate_keypair(512, seed=2).n

    def test_exact_modulus_size(self):
        for bits in (512, 768, 1024):
            assert rsa.generate_keypair(bits, seed=3).n.bit_length() == bits

    def test_public_exponent(self, key):
        assert key.e == 65537

    def test_private_key_inverts(self, key):
        message = 0x1234567890
        assert pow(pow(message, key.e, key.n), key.d, key.n) == message


class TestCrt:
    """Signing uses the CRT quintuple; PKCS#1 v1.5 is deterministic, so
    the bytes must be those of the textbook ``m^d mod n``."""

    @pytest.mark.parametrize(
        "bits,digest",
        # (512, "sha512") does not exist: the DigestInfo does not fit.
        [(512, "sha1"), (512, "sha256"), (1024, "sha1"), (1024, "sha256"), (1024, "sha512")],
    )
    def test_crt_signature_equals_plain_exponentiation(self, bits, digest):
        key = rsa.generate_keypair(bits, seed=9)
        for message in (b"", b"m", bytes(range(256))):
            em = rsa._emsa_pkcs1_v15(digest, message, key.byte_length)
            plain = pow(int.from_bytes(em, "big"), key.d, key.n)
            signature = rsa.sign(key, message, digest_name=digest)
            assert signature == plain.to_bytes(key.byte_length, "big")
            assert rsa.verify(key.public, message, signature, digest_name=digest)

    def test_crt_parameters_are_consistent(self, key):
        assert key.p * key.q == key.n
        assert key.dp == key.d % (key.p - 1) and key.dq == key.d % (key.q - 1)
        assert key.q * key.qinv % key.p == 1

    def test_seeded_keys_are_generated_once(self):
        assert rsa.generate_keypair(512, seed=31337) is rsa.generate_keypair(512, seed=31337)
        assert rsa.generate_keypair(512).n != rsa.generate_keypair(512).n  # unseeded: fresh


class TestSignVerify:
    def test_sign_verify(self, key):
        signature = rsa.sign(key, b"hello world")
        assert rsa.verify(key.public, b"hello world", signature)

    def test_signature_length_is_modulus_length(self, key):
        assert len(rsa.sign(key, b"x")) == key.byte_length

    def test_tampered_message_fails(self, key):
        signature = rsa.sign(key, b"hello world")
        assert not rsa.verify(key.public, b"hello worle", signature)

    def test_tampered_signature_fails(self, key):
        signature = bytearray(rsa.sign(key, b"msg"))
        signature[10] ^= 0x01
        assert not rsa.verify(key.public, b"msg", bytes(signature))

    def test_wrong_key_fails(self, key):
        other = rsa.generate_keypair(512, seed=777)
        signature = rsa.sign(key, b"msg")
        assert not rsa.verify(other.public, b"msg", signature)

    def test_wrong_digest_fails(self, key):
        signature = rsa.sign(key, b"msg", digest_name="sha256")
        assert not rsa.verify(key.public, b"msg", signature, digest_name="sha1")

    def test_sha1_and_sha512(self, key):
        for digest in ("sha1", "sha512"):
            if digest == "sha512":
                # 512-bit modulus is too small for SHA-512 EMSA encoding.
                with pytest.raises(ValueError):
                    rsa.sign(key, b"m", digest_name=digest)
            else:
                signature = rsa.sign(key, b"m", digest_name=digest)
                assert rsa.verify(key.public, b"m", signature, digest_name=digest)

    def test_sha512_with_big_key(self):
        key = rsa.generate_keypair(1024, seed=9)
        signature = rsa.sign(key, b"m", digest_name="sha512")
        assert rsa.verify(key.public, b"m", signature, digest_name="sha512")

    def test_deterministic_signature(self, key):
        assert rsa.sign(key, b"same") == rsa.sign(key, b"same")

    def test_bad_signature_length_rejected(self, key):
        assert not rsa.verify(key.public, b"m", b"\x00" * (key.byte_length - 1))

    def test_signature_ge_modulus_rejected(self, key):
        too_big = (key.n + 1).to_bytes(key.byte_length, "big", signed=False) \
            if (key.n + 1).bit_length() <= key.byte_length * 8 else b"\xff" * key.byte_length
        assert not rsa.verify(key.public, b"m", too_big)

    def test_verify_never_raises_on_garbage(self, key):
        for garbage in (b"", b"\x00", b"\xff" * 64, b"a" * 200):
            assert rsa.verify(key.public, b"m", garbage) in (True, False)


class TestDnskeyFormat:
    def test_round_trip(self, key):
        data = key.public.to_dnskey_format()
        decoded = rsa.RsaPublicKey.from_dnskey_format(data)
        assert decoded == key.public

    def test_layout_short_exponent(self, key):
        data = key.public.to_dnskey_format()
        assert data[0] == 3  # 65537 is three octets
        assert data[1:4] == b"\x01\x00\x01"

    def test_long_exponent_encoding(self):
        public = rsa.RsaPublicKey(n=(1 << 512) + 1, e=(1 << 2050) + 1)
        data = public.to_dnskey_format()
        assert data[0] == 0  # long form marker
        assert rsa.RsaPublicKey.from_dnskey_format(data) == public

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rsa.RsaPublicKey.from_dnskey_format(b"")

    def test_truncated_exponent_rejected(self):
        with pytest.raises(ValueError):
            rsa.RsaPublicKey.from_dnskey_format(b"\x05\x01\x02")

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            rsa.RsaPublicKey.from_dnskey_format(b"\x01\x03")


class TestPrimality:
    def test_small_primes_detected(self):
        import random

        rng = random.Random(0)
        for p in (2, 3, 5, 7, 97, 101, 65537):
            assert rsa._is_probable_prime(p, rng)

    def test_small_composites_rejected(self):
        import random

        rng = random.Random(0)
        for c in (0, 1, 4, 9, 15, 91, 561, 6601):  # incl. Carmichael numbers
            assert not rsa._is_probable_prime(c, rng)

    def test_carmichael_numbers_rejected(self):
        import random

        rng = random.Random(0)
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not rsa._is_probable_prime(c, rng)


#: Primes just above the trial-division bound 149, and around the gcd
#: sieve's bound 2^14 = 16384.
NEAR_149 = (151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199)
NEAR_SIEVE_BOUND = (16349, 16361, 16363, 16369, 16381, 16411, 16417, 16421, 16427)
#: Strong pseudoprimes to small bases: 151 * 751 * 28351, whose divisor
#: under the sieve (151 * 751) is composite, and two with no factor
#: below the sieve bound.
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)

_sieve_primes = st.sampled_from(NEAR_149 + NEAR_SIEVE_BOUND)
_candidates = st.one_of(
    st.integers(64, 512).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1).map(lambda v: v | 1)
    ),
    _sieve_primes,
    st.tuples(_sieve_primes, _sieve_primes).map(lambda pq: pq[0] * pq[1]),
    st.tuples(_sieve_primes, st.integers(1 << 63, 1 << 200)).map(
        lambda pc: pc[0] * (pc[1] | 1)
    ),
    st.sampled_from(STRONG_PSEUDOPRIMES),
)


class TestPrimalityOracle:
    """The gcd sieve decides a witness round on a divisor of the
    candidate when it can; verdicts and the draws from ``rng`` must be
    those of the plain Miller-Rabin test, or every seeded key moves."""

    @settings(max_examples=300, deadline=None)
    @given(candidate=_candidates, seed=st.integers(0, 2**32))
    def test_same_verdict_and_same_draws_as_plain_test(
        self, candidate, seed, sanitizer_if_requested
    ):
        new, reference = random.Random(seed), random.Random(seed)
        with sanitizer_if_requested():
            verdict = rsa._is_probable_prime(candidate, new)
        assert verdict == reference_is_probable_prime(candidate, reference)
        assert new.getstate() == reference.getstate()

    @pytest.mark.parametrize("candidate", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_draw_what_the_plain_test_draws(self, candidate):
        """About a quarter of the witnesses drawn for these are strong
        liars, so the plain test runs past its first round."""
        for seed in range(200):
            new, reference = random.Random(seed), random.Random(seed)
            assert not rsa._is_probable_prime(candidate, new)
            assert not reference_is_probable_prime(candidate, reference)
            assert new.getstate() == reference.getstate()

    def test_sieve_product_holds_the_primes_above_149_up_to_its_bound(self):
        factors = [p for p in NEAR_149 + NEAR_SIEVE_BOUND if rsa._SIEVE_PRODUCT % p == 0]
        assert factors == [p for p in NEAR_149 + NEAR_SIEVE_BOUND if p <= rsa._SIEVE_BOUND]
        assert all(rsa._SIEVE_PRODUCT % p for p in rsa._SMALL_PRIMES)

    def test_sieve_saves_full_size_exponentiations(self, monkeypatch, sanitizer_if_requested):
        """A 1024-bit key for one seed: the same key, and fewer 512-bit
        witness exponentiations than the plain test takes.  Pinned, so
        an edit that loses the shortcut fails here."""
        from . import rsa_oracle

        counted = []

        def counting_pow(base, exp, mod=None):
            if mod is not None and exp > 2 and mod.bit_length() == 512:
                counted.append(mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(rsa, "pow", counting_pow, raising=False)
        with sanitizer_if_requested():
            key = rsa._generate_keypair(1024, 9)
        sieved = len(counted)

        counted.clear()
        monkeypatch.setattr(rsa_oracle, "pow", counting_pow, raising=False)
        monkeypatch.setattr(rsa, "_is_probable_prime", rsa_oracle.is_probable_prime)
        with sanitizer_if_requested():
            assert rsa._generate_keypair(1024, 9) == key
        assert (sieved, len(counted)) == (85, 118)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_property_sign_verify(message):
    key = rsa.generate_keypair(512, seed=42)
    assert rsa.verify(key.public, message, rsa.sign(key, message))


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=63))
def test_property_bitflip_breaks_signature(message, position):
    key = rsa.generate_keypair(512, seed=42)
    signature = bytearray(rsa.sign(key, message))
    signature[position % len(signature)] ^= 0x80
    assert not rsa.verify(key.public, message, bytes(signature))


class TestRecoveredMemo:
    """``verify`` remembers ``s^e mod n`` per (key, signature) and still
    encodes and compares the message on every call: the memo holds
    arithmetic, never a verdict, and no verdict can tell it is there."""

    @pytest.fixture
    def memo(self, monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(rsa, "_recovered", memo)
        return memo

    def test_a_remembered_signature_is_checked_against_each_message(self, key, memo):
        signature = rsa.sign(key, b"msg")
        assert rsa.verify(key.public, b"msg", signature)
        assert len(memo) == 1
        assert not rsa.verify(key.public, b"msh", signature)
        assert not rsa.verify(key.public, b"msg", signature, digest_name="sha1")
        assert rsa.verify(key.public, b"msg", signature)
        assert len(memo) == 1

    def test_the_memo_holds_at_most_its_cap(self, key, memo):
        public = key.public
        signatures = [
            (index + 2).to_bytes(key.byte_length, "big")
            for index in range(rsa._RECOVERED_MAX + 1)
        ]
        for signature in signatures:
            assert not rsa.verify(public, b"m", signature)
        assert len(memo) == rsa._RECOVERED_MAX
        # The least recently used pair went first.
        assert (public.n, public.e, signatures[0]) not in memo
        assert (public.n, public.e, signatures[-1]) in memo

    def test_a_matrix_computes_each_public_operation_once(
        self, memo, monkeypatch, sanitizer_if_requested
    ):
        """The 63×7 matrix makes 2 009 RSA checks over 75 distinct
        (key, signature) pairs: 75 exponentiations."""
        from repro.testbed.infra import build_testbed
        from repro.testbed.runner import run_matrix

        testbed = build_testbed()
        public_operations = []

        def counting_pow(base, exp, mod=None):
            if exp == 65537:
                public_operations.append((base, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(rsa, "pow", counting_pow, raising=False)
        with sanitizer_if_requested():
            run_matrix(testbed)
        assert len(public_operations) == len(set(public_operations)) == 75
        assert len(memo) == 75

    def test_every_served_verdict_is_the_cold_one(self, memo, testbed_checks):
        """Every RSA RRSIG the testbed serves, against every key of its
        algorithm at its apex: the same verdicts with the memo cleared
        before each call as with it filling and then full."""
        cold = []
        for dnskey, message, signature in testbed_checks:
            memo.clear()
            cold.append(verify_signature(dnskey, message, signature))
        memo.clear()
        filling = [verify_signature(*check) for check in testbed_checks]
        full = [verify_signature(*check) for check in testbed_checks]
        assert cold == filling == full
        assert sorted(set(cold)) == [False, True]


@pytest.fixture(scope="module")
def testbed_checks():
    from repro.testbed.infra import build_testbed

    checks, _uncovered = served_rsa_checks(build_testbed().fabric)
    return checks
