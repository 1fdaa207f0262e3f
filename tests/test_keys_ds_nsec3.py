"""Key management, DS digests, the simulated backend, and NSEC3 hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.dnssec_records import DS
from repro.dns.name import Name
from repro.dnssec import simulated
from repro.dnssec.algorithms import (
    Algorithm,
    AlgorithmStatus,
    algorithm_info,
    digest_is_assigned,
    is_zone_signing_algorithm,
    mnemonic,
)
from repro.dnssec.ds import compute_digest, digest_length, ds_matches_dnskey, make_ds
from repro.dnssec.keys import (
    KSK_FLAGS,
    ZSK_FLAGS,
    KeyPair,
    rsa_key_size_bits,
    verify_signature,
)
from repro.dnssec.nsec3 import (
    base32hex_decode,
    base32hex_encode,
    closest_encloser_candidates,
    hash_covers,
    nsec3_hash,
    nsec3_owner,
)

from . import base32hex_oracle

ZONE = Name.from_text("example.com.")


class TestAlgorithmRegistry:
    def test_rsamd5_deprecated(self):
        assert algorithm_info(1).status == AlgorithmStatus.DEPRECATED

    def test_dsa_not_recommended(self):
        assert algorithm_info(3).status == AlgorithmStatus.NOT_RECOMMENDED

    def test_rsasha256_active(self):
        assert algorithm_info(8).status == AlgorithmStatus.ACTIVE
        assert is_zone_signing_algorithm(8)

    def test_unassigned_number(self):
        assert algorithm_info(100).status == AlgorithmStatus.UNASSIGNED

    def test_reserved_number(self):
        assert algorithm_info(200).status == AlgorithmStatus.RESERVED

    def test_mnemonics(self):
        assert mnemonic(8) == "RSASHA256"
        assert mnemonic(16) == "ED448"
        assert mnemonic(100) == "ALG100"

    def test_digest_assignment(self):
        assert digest_is_assigned(2)
        assert not digest_is_assigned(100)


class TestKeyPair:
    def test_rsa_backend_for_rsa_algorithms(self):
        key = KeyPair.generate(Algorithm.RSASHA256, ZSK_FLAGS, bits=512, seed=1)
        assert key._rsa is not None and key._sim is None

    def test_simulated_backend_for_others(self):
        key = KeyPair.generate(Algorithm.ED448, ZSK_FLAGS, seed=1)
        assert key._sim is not None and key._rsa is None

    def test_flags(self):
        assert KeyPair.generate(8, KSK_FLAGS, bits=512, seed=1).is_ksk
        assert not KeyPair.generate(8, ZSK_FLAGS, bits=512, seed=1).is_ksk

    def test_dnskey_overrides(self):
        key = KeyPair.generate(8, ZSK_FLAGS, bits=512, seed=1)
        assert key.dnskey(flags=0).flags == 0
        assert key.dnskey(algorithm=200).algorithm == 200
        # The key material is unchanged by overrides.
        assert key.dnskey(algorithm=200).key == key.dnskey().key

    def test_sign_verify_rsa(self):
        key = KeyPair.generate(8, ZSK_FLAGS, bits=512, seed=2)
        assert verify_signature(key.dnskey(), b"data", key.sign(b"data"))

    def test_sign_verify_simulated(self):
        key = KeyPair.generate(13, ZSK_FLAGS, seed=2)
        assert verify_signature(key.dnskey(), b"data", key.sign(b"data"))

    def test_verify_wrong_data_fails(self):
        key = KeyPair.generate(13, ZSK_FLAGS, seed=2)
        assert not verify_signature(key.dnskey(), b"other", key.sign(b"data"))

    def test_verify_garbage_key_returns_false(self):
        from repro.dns.dnssec_records import DNSKEY

        bad = DNSKEY(flags=256, algorithm=8, key=b"")
        assert not verify_signature(bad, b"data", b"sig")

    def test_rsa_key_size_bits(self):
        key = KeyPair.generate(8, ZSK_FLAGS, bits=512, seed=3)
        assert rsa_key_size_bits(key.dnskey()) == 512

    def test_rsa_key_size_none_for_simulated(self):
        key = KeyPair.generate(13, ZSK_FLAGS, seed=3)
        assert rsa_key_size_bits(key.dnskey()) is None


class TestSimulatedBackend:
    def test_deterministic(self):
        a = simulated.generate_keypair(16, seed=5)
        b = simulated.generate_keypair(16, seed=5)
        assert a.secret == b.secret

    def test_signature_lengths_plausible(self):
        for algorithm, expected in ((3, 40), (13, 64), (14, 96), (15, 64), (16, 114)):
            key = simulated.generate_keypair(algorithm, seed=1)
            assert len(simulated.sign(key, b"m")) == expected

    def test_cross_algorithm_keys_do_not_verify(self):
        key_a = simulated.generate_keypair(13, seed=1)
        key_b = simulated.SimulatedPublicKey(algorithm=14, key=key_a.public.key)
        signature = simulated.sign(key_a, b"m")
        assert not simulated.verify(key_b, b"m", signature)

    def test_tamper_detection(self):
        key = simulated.generate_keypair(15, seed=1)
        signature = bytearray(simulated.sign(key, b"m"))
        signature[0] ^= 1
        assert not simulated.verify(key.public, b"m", bytes(signature))


class TestDs:
    @pytest.fixture(scope="class")
    def ksk(self):
        return KeyPair.generate(8, KSK_FLAGS, bits=512, seed=10)

    def test_make_and_match(self, ksk):
        ds = make_ds(ZONE, ksk.dnskey())
        assert ds_matches_dnskey(ds, ZONE, ksk.dnskey())

    def test_digest_types(self, ksk):
        for digest_type, length in ((1, 20), (2, 32), (3, 32), (4, 48)):
            ds = make_ds(ZONE, ksk.dnskey(), digest_type)
            assert len(ds.digest) == length
            assert digest_length(digest_type) == length

    def test_unknown_digest_raises(self, ksk):
        with pytest.raises(ValueError):
            compute_digest(ZONE, ksk.dnskey(), 100)

    def test_owner_name_affects_digest(self, ksk):
        a = make_ds(Name.from_text("a.test."), ksk.dnskey())
        b = make_ds(Name.from_text("b.test."), ksk.dnskey())
        assert a.digest != b.digest

    def test_owner_case_does_not_affect_digest(self, ksk):
        a = make_ds(Name.from_text("EXAMPLE.com."), ksk.dnskey())
        b = make_ds(Name.from_text("example.com."), ksk.dnskey())
        assert a.digest == b.digest

    def test_tag_mismatch_rejected(self, ksk):
        ds = make_ds(ZONE, ksk.dnskey())
        bad = DS(
            key_tag=(ds.key_tag + 1) & 0xFFFF,
            algorithm=ds.algorithm,
            digest_type=ds.digest_type,
            digest=ds.digest,
        )
        assert not ds_matches_dnskey(bad, ZONE, ksk.dnskey())

    def test_algorithm_mismatch_rejected(self, ksk):
        ds = make_ds(ZONE, ksk.dnskey())
        bad = DS(
            key_tag=ds.key_tag, algorithm=5,
            digest_type=ds.digest_type, digest=ds.digest,
        )
        assert not ds_matches_dnskey(bad, ZONE, ksk.dnskey())

    def test_digest_mismatch_rejected(self, ksk):
        ds = make_ds(ZONE, ksk.dnskey())
        bad = DS(
            key_tag=ds.key_tag, algorithm=ds.algorithm,
            digest_type=ds.digest_type, digest=b"\x00" * len(ds.digest),
        )
        assert not ds_matches_dnskey(bad, ZONE, ksk.dnskey())

    def test_overrides(self, ksk):
        ds = make_ds(ZONE, ksk.dnskey(), key_tag=4711, algorithm=200)
        assert ds.key_tag == 4711 and ds.algorithm == 200


class TestBase32Hex:
    def test_rfc4648_vectors_unpadded(self):
        # RFC 4648 section 10, padding stripped.
        vectors = {
            b"": "",
            b"f": "co",
            b"fo": "cpng",
            b"foo": "cpnmu",
            b"foob": "cpnmuog",
            b"fooba": "cpnmuoj1",
            b"foobar": "cpnmuoj1e8",
        }
        for raw, encoded in vectors.items():
            assert base32hex_encode(raw) == encoded
            assert base32hex_decode(encoded) == raw

    def test_case_insensitive_decode(self):
        assert base32hex_decode("CPNMU") == b"foo"

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            base32hex_decode("zz!!")

    @given(st.binary(min_size=0, max_size=64))
    def test_property_round_trip(self, data):
        assert base32hex_decode(base32hex_encode(data)) == data

    @given(st.binary(min_size=0, max_size=64))
    def test_property_equals_the_bit_loop_oracle(self, data):
        encoded = base32hex_encode(data)
        assert encoded == base32hex_oracle.base32hex_encode(data)
        assert base32hex_decode(encoded) == data


class TestNsec3Hash:
    def test_rfc5155_appendix_a_vector(self):
        # H(example) with salt aabbccdd, 12 extra iterations
        # = 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom (RFC 5155 Appendix A).
        digest = nsec3_hash(
            Name.from_text("example."), bytes.fromhex("aabbccdd"), 12
        )
        assert base32hex_encode(digest) == "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"

    def test_rfc5155_a_example_vector(self):
        digest = nsec3_hash(
            Name.from_text("a.example."), bytes.fromhex("aabbccdd"), 12
        )
        assert base32hex_encode(digest) == "35mthgpgcu1qg68fab165klnsnk3dpvl"

    def test_case_insensitive(self):
        a = nsec3_hash(Name.from_text("Example."), b"", 0)
        b = nsec3_hash(Name.from_text("example."), b"", 0)
        assert a == b

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            nsec3_hash(Name.from_text("example."), b"", 0, algorithm=2)

    def test_owner_name(self):
        owner = nsec3_owner(Name.from_text("a.example."), Name.from_text("example."),
                            bytes.fromhex("aabbccdd"), 12)
        assert str(owner) == "35mthgpgcu1qg68fab165klnsnk3dpvl.example."


class TestHashCovers:
    def test_simple_interval(self):
        assert hash_covers(b"\x10", b"\x20", b"\x18")
        assert not hash_covers(b"\x10", b"\x20", b"\x08")
        assert not hash_covers(b"\x10", b"\x20", b"\x10")
        assert not hash_covers(b"\x10", b"\x20", b"\x20")

    def test_wraparound_interval(self):
        assert hash_covers(b"\xf0", b"\x10", b"\xff")
        assert hash_covers(b"\xf0", b"\x10", b"\x05")
        assert not hash_covers(b"\xf0", b"\x10", b"\x80")

    def test_single_record_chain_covers_all_but_self(self):
        assert hash_covers(b"\x42", b"\x42", b"\x43")
        assert hash_covers(b"\x42", b"\x42", b"\x00")
        assert not hash_covers(b"\x42", b"\x42", b"\x42")


class TestClosestEncloser:
    def test_candidates_deepest_first(self):
        qname = Name.from_text("a.b.example.")
        zone = Name.from_text("example.")
        assert closest_encloser_candidates(qname, zone) == [
            Name.from_text("a.b.example."),
            Name.from_text("b.example."),
            Name.from_text("example."),
        ]

    def test_out_of_zone_rejected(self):
        with pytest.raises(ValueError):
            closest_encloser_candidates(Name.from_text("a.org."), Name.from_text("com."))
