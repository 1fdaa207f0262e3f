"""An outside oracle for the DNSSEC RSA bytes: OpenSSL, through ``cryptography``.

The signer and the validator share ``dnssec/rsa.py``, ``signed_data`` and
the RFC 3110 key codec, so a wrong DigestInfo prefix (RFC 8017 §9.2), a
canonical-form slip (RFC 4034 §6.2) or a mis-encoded exponent length
(RFC 3110 §2) would sign and verify consistently with every identity gate
green.  Here every RSA RRSIG the testbed serves is checked by both, with
the public-operation memo of ``rsa.verify`` cold and then warm.

``cryptography`` is a test dependency (the ``test`` extra); ``src/`` never
imports it.  This module fails, rather than skips, without it.
"""

from __future__ import annotations

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPublicNumbers

from repro.dns.dnssec_records import DNSKEY
from repro.dns.types import RdataType
from repro.dnssec import rsa
from repro.dnssec.keys import RSA_DIGESTS, rsa_key_size_bits, verify_signature
from repro.testbed.infra import build_testbed

from .rsa_oracle import served_rsa_checks

_HASHES = {"sha1": hashes.SHA1, "sha256": hashes.SHA256, "sha512": hashes.SHA512}

#: (RSA RRSIG, same-algorithm apex DNSKEY) pairs the testbed serves, the
#: RRSIGs among them, and the two whose covered NSEC3PARAM set the
#: ``nsec3param-missing`` and ``no-nsec3param-nsec3`` cases delete.
CHECKS, SIGNATURES, UNCOVERED = 925, 485, 2


def public_numbers(dnskey: DNSKEY) -> RSAPublicNumbers:
    public = rsa.RsaPublicKey.from_dnskey_format(dnskey.key)
    return RSAPublicNumbers(public.e, public.n)


def openssl_verdict(dnskey: DNSKEY, message: bytes, signature: bytes) -> bool:
    digest = _HASHES[RSA_DIGESTS[dnskey.algorithm]]()
    try:
        public_numbers(dnskey).public_key().verify(
            signature, message, padding.PKCS1v15(), digest
        )
    except InvalidSignature:
        return False
    return True


@pytest.fixture(scope="module")
def served():
    return served_rsa_checks(build_testbed().fabric)


def test_the_testbed_serves_the_counted_rsa_signatures(served):
    checks, uncovered = served
    assert len(checks) == CHECKS
    assert len({signature for _key, _message, signature in checks}) == SIGNATURES
    assert len(uncovered) == UNCOVERED
    assert {rrsig.type_covered for rrsig in uncovered} == {RdataType.NSEC3PARAM}


def test_openssl_agrees_with_every_verdict_cold_and_warm(served, monkeypatch):
    checks, _uncovered = served
    memo: dict = {}
    monkeypatch.setattr(rsa, "_recovered", memo)
    theirs = [openssl_verdict(*check) for check in checks]
    cold = []
    for check in checks:
        memo.clear()
        cold.append(verify_signature(*check))
    warm = [verify_signature(*check) for check in checks]
    assert cold == theirs
    assert warm == theirs
    # Both verdicts occur: each RRSIG meets its own key and the others.
    assert sorted(set(theirs)) == [False, True]


def test_every_rsa_key_loads_with_its_own_size(served):
    checks, _uncovered = served
    for dnskey in {dnskey.key: dnskey for dnskey, _message, _signature in checks}.values():
        assert public_numbers(dnskey).public_key().key_size == rsa_key_size_bits(dnskey)
