"""RRset signing and chain-of-trust validation with in-memory sources."""

import pytest

from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.algorithms import Algorithm
from repro.dnssec.keys import KSK_FLAGS, ZSK_FLAGS, KeyPair, verify_signature
from repro.dnssec.signer import (
    SigningPolicy,
    owner_label_count,
    sign_rrset,
    signed_data,
)
from repro.dnssec.trace import FailureReason, ValidationState
from repro.dnssec.validator import FetchResult, Validator, ValidatorConfig
from repro.dnssec.ds import make_ds
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation
from repro.zones.zone import Zone

NOW = 1_684_108_800  # 2023-05-15
ZONE = Name.from_text("example.com.")


@pytest.fixture(scope="module")
def zsk():
    return KeyPair.generate(Algorithm.ECDSAP256SHA256, ZSK_FLAGS, seed=21)


@pytest.fixture(scope="module")
def ksk():
    return KeyPair.generate(Algorithm.ECDSAP256SHA256, KSK_FLAGS, seed=20)


def a_rrset(name="www.example.com.", address="192.0.2.1") -> RRset:
    return RRset.of(Name.from_text(name), RdataType.A, A(address=address), ttl=300)


class TestSigner:
    def test_signature_verifies(self, zsk):
        rrset = a_rrset()
        sig = sign_rrset(rrset, zsk, ZONE, SigningPolicy.window(NOW))
        assert verify_signature(zsk.dnskey(), signed_data(rrset, sig), sig.signature)

    def test_signature_fields(self, zsk):
        rrset = a_rrset()
        sig = sign_rrset(rrset, zsk, ZONE, SigningPolicy.window(NOW))
        assert sig.type_covered == RdataType.A
        assert sig.signer == ZONE
        assert sig.key_tag == zsk.key_tag()
        assert sig.labels == 3
        assert sig.original_ttl == 300
        assert sig.inception < NOW < sig.expiration

    def test_label_count_ignores_wildcard(self):
        assert owner_label_count(Name.from_text("*.example.com.")) == 2
        assert owner_label_count(Name.from_text("a.example.com.")) == 3
        assert owner_label_count(Name.root()) == 0

    def test_rdata_order_does_not_matter(self, zsk):
        rrset_a = RRset.of(
            Name.from_text("m.example.com."), RdataType.A,
            A(address="192.0.2.1"), A(address="192.0.2.2"),
        )
        rrset_b = RRset.of(
            Name.from_text("m.example.com."), RdataType.A,
            A(address="192.0.2.2"), A(address="192.0.2.1"),
        )
        policy = SigningPolicy.window(NOW)
        assert (
            sign_rrset(rrset_a, zsk, ZONE, policy).signature
            == sign_rrset(rrset_b, zsk, ZONE, policy).signature
        )

    def test_owner_case_does_not_matter(self, zsk):
        policy = SigningPolicy.window(NOW)
        sig = sign_rrset(a_rrset("WWW.Example.COM."), zsk, ZONE, policy)
        data = signed_data(a_rrset("www.example.com."), sig)
        assert verify_signature(zsk.dnskey(), data, sig.signature)

    def test_policy_overrides(self, zsk):
        policy = SigningPolicy(
            inception=1, expiration=2, algorithm_override=200, key_tag_override=7
        )
        sig = sign_rrset(a_rrset(), zsk, ZONE, policy)
        assert (sig.inception, sig.expiration, sig.algorithm, sig.key_tag) == (1, 2, 200, 7)

    def test_ttl_change_breaks_signature(self, zsk):
        rrset = a_rrset()
        sig = sign_rrset(rrset, zsk, ZONE, SigningPolicy.window(NOW))
        altered = rrset.with_ttl(999)
        # signed_data uses original_ttl from the RRSIG, so validation still
        # succeeds — TTL decay must not break signatures (RFC 4034 3.1.8.1).
        assert verify_signature(
            zsk.dnskey(), signed_data(altered, sig), sig.signature
        )

    def test_rdata_change_breaks_signature(self, zsk):
        rrset = a_rrset()
        sig = sign_rrset(rrset, zsk, ZONE, SigningPolicy.window(NOW))
        altered = a_rrset(address="192.0.2.99")
        assert not verify_signature(
            zsk.dnskey(), signed_data(altered, sig), sig.signature
        )


class DictSource:
    """RecordSource backed by pre-built zones."""

    def __init__(self, zones: dict[Name, Zone]):
        self.zones = zones
        self.fetches: list[tuple[Name, Name, RdataType]] = []

    def fetch_from_zone(self, zone: Name, qname: Name, rdtype: RdataType) -> FetchResult:
        self.fetches.append((zone, qname, rdtype))
        store = self.zones.get(zone)
        if store is None:
            return FetchResult(ok=False, rcode=Rcode.SERVFAIL)
        rrset = store.find(qname, rdtype)
        if rrset is None:
            return FetchResult(authority=tuple(store.denial_rrsets(qname)))
        sigs = store.rrsigs_for(qname, rdtype)
        return FetchResult(answer=(rrset,) if sigs is None else (rrset, sigs))


def build_world(child_mutation: ZoneMutation | None = None):
    """Root zone + child zone, returning (source, config, child_built)."""
    child_mutation = child_mutation or ZoneMutation(algorithm=13)
    child_mutation.algorithm = child_mutation.algorithm or 13
    child_builder = ZoneBuilder(ZONE, now=NOW, mutation=child_mutation, key_seed=50)
    child_builder.add(a_rrset("example.com.", "192.0.2.7"))
    child_builder.add(a_rrset("www.example.com.", "192.0.2.8"))
    child_builder.ensure_soa()
    child = child_builder.build()

    root_builder = ZoneBuilder(
        Name.root(), now=NOW, mutation=ZoneMutation(algorithm=13), key_seed=51
    )
    root_builder.ensure_soa()
    for ds in child.ds_rdatas:
        root_builder.add(RRset.of(ZONE, RdataType.DS, ds, ttl=300))
    root = root_builder.build()

    source = DictSource({Name.root(): root.zone, ZONE: child.zone})
    assert root.ksk is not None
    config = ValidatorConfig(trust_anchors=[make_ds(Name.root(), root.ksk.dnskey(), 2)])
    return source, config, child


def validate_answer(source, config, qname="www.example.com.", rcode=Rcode.NOERROR):
    validator = Validator(config, source)
    qname = Name.from_text(qname)
    child_zone = source.zones[ZONE]
    answer = []
    rrset = child_zone.find(qname, RdataType.A)
    if rrset is not None:
        answer.append(rrset)
        sigs = child_zone.rrsigs_for(qname, RdataType.A)
        if sigs is not None:
            answer.append(sigs)
    authority = [] if answer else list(child_zone.denial_rrsets(qname))
    return validator.validate(
        qname, RdataType.A, [Name.root(), ZONE], answer, authority,
        rcode if answer else Rcode.NXDOMAIN, NOW,
    )


class TestValidatorPositive:
    def test_valid_chain_is_secure(self):
        source, config, _ = build_world()
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.SECURE

    def test_unsigned_child_is_insecure(self):
        source, config, _ = build_world(ZoneMutation(signed=False))
        # Remove the DS from the root.
        source.zones[Name.root()].remove(ZONE, RdataType.DS)
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.INSECURE

    def test_validator_fetches_ds_and_dnskey(self):
        source, config, _ = build_world()
        validate_answer(source, config)
        fetched = {(z, q, t) for z, q, t in source.fetches}
        assert (Name.root(), ZONE, RdataType.DS) in fetched
        assert (ZONE, ZONE, RdataType.DNSKEY) in fetched

    def test_nxdomain_with_valid_nsec3_is_secure(self):
        source, config, _ = build_world()
        trace = validate_answer(source, config, qname="nx.example.com.")
        assert trace.state is ValidationState.SECURE


@pytest.mark.parametrize(
    "mutation_fields,expected_reason",
    [
        ({"ds_tag_offset": 1}, FailureReason.DS_DNSKEY_MISMATCH),
        ({"ds_algorithm_override": 8}, FailureReason.DS_DNSKEY_MISMATCH),
        ({"ds_corrupt_digest": True}, FailureReason.DS_DIGEST_MISMATCH),
        ({"drop_ksk": True}, FailureReason.DS_DNSKEY_MISMATCH),
        ({"corrupt_ksk": True}, FailureReason.DS_DNSKEY_MISMATCH),
        ({"drop_zsk": True}, FailureReason.ZSK_MISSING),
        ({"corrupt_zsk": True}, FailureReason.ZSK_BAD),
        ({"clear_zone_bit_zsk": True}, FailureReason.ZSK_MISSING),
        ({"clear_zone_bit_ksk": True}, FailureReason.DS_DNSKEY_MISMATCH),
        (
            {"clear_zone_bit_zsk": True, "clear_zone_bit_ksk": True},
            FailureReason.ZONE_KEY_BITS_CLEAR,
        ),
        ({"zsk_algorithm_override": 14}, FailureReason.ZSK_ALGO_MISMATCH),
        ({"zsk_algorithm_override": 100}, FailureReason.ZSK_ALGO_UNASSIGNED),
        ({"zsk_algorithm_override": 200}, FailureReason.ZSK_ALGO_RESERVED),
    ],
)
def test_validator_key_failures(mutation_fields, expected_reason):
    mutation = ZoneMutation(algorithm=13, **mutation_fields)
    source, config, _ = build_world(mutation)
    trace = validate_answer(source, config)
    assert trace.state is ValidationState.BOGUS
    assert trace.reason is expected_reason


class TestValidatorSupportDowngrades:
    def test_unassigned_ds_algo_is_insecure(self):
        source, config, _ = build_world(ZoneMutation(ds_algorithm_override=100))
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.INSECURE
        assert trace.reason is FailureReason.DS_UNASSIGNED_KEY_ALGO

    def test_reserved_ds_algo_is_insecure(self):
        source, config, _ = build_world(ZoneMutation(ds_algorithm_override=200))
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DS_RESERVED_KEY_ALGO

    def test_unassigned_digest_is_insecure(self):
        source, config, _ = build_world(ZoneMutation(ds_digest_type_override=100))
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DS_UNASSIGNED_DIGEST

    def test_deprecated_algorithm_treated_unsigned(self):
        source, config, _ = build_world(ZoneMutation(algorithm=1))
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.INSECURE
        assert trace.reason is FailureReason.ALGO_DEPRECATED

    def test_unsupported_active_algorithm(self):
        from repro.dnssec.algorithms import CLOUDFLARE_SUPPORTED

        source, config, _ = build_world(ZoneMutation(algorithm=16))
        config.supported_algorithms = CLOUDFLARE_SUPPORTED
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.INSECURE
        assert trace.reason is FailureReason.ALGO_UNSUPPORTED

    def test_ed448_validates_when_supported(self):
        from repro.dnssec.algorithms import FULL_SUPPORTED

        source, config, _ = build_world(ZoneMutation(algorithm=16))
        config.supported_algorithms = FULL_SUPPORTED
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.SECURE

    def test_small_rsa_key_flagged(self):
        source, config, _ = build_world(ZoneMutation(algorithm=8, key_bits=512))
        config.min_rsa_bits = 1024
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.INSECURE
        assert trace.reason is FailureReason.KEY_SIZE_UNSUPPORTED
        assert trace.key_size == 512


class TestValidatorSignatureFailures:
    @pytest.mark.parametrize(
        "fields,reason",
        [
            ({"window_all": "expired"}, FailureReason.DNSKEY_SIG_EXPIRED),
            ({"window_all": "not_yet"}, FailureReason.DNSKEY_SIG_NOT_YET_VALID),
            ({"window_all": "inverted"}, FailureReason.DNSKEY_SIG_INVERTED),
            ({"window_a": "expired"}, FailureReason.LEAF_SIG_EXPIRED),
            ({"window_a": "not_yet"}, FailureReason.LEAF_SIG_NOT_YET_VALID),
            ({"window_a": "inverted"}, FailureReason.LEAF_SIG_INVERTED),
        ],
    )
    def test_window_failures(self, fields, reason):
        from repro.zones.mutations import Window

        window_map = {
            "expired": Window.EXPIRED,
            "not_yet": Window.NOT_YET_VALID,
            "inverted": Window.INVERTED,
        }
        mutation = ZoneMutation(algorithm=13)
        for key, value in fields.items():
            setattr(mutation, key, window_map[value])
        source, config, _ = build_world(mutation)
        qname = "example.com." if "window_a" in fields else "www.example.com."
        trace = validate_answer(source, config, qname=qname)
        assert trace.state is ValidationState.BOGUS
        assert trace.reason is reason

    def test_dropped_sigs(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(ZoneMutation(algorithm=13, drop_sigs=SigScope.ALL))
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DNSKEY_RRSIG_MISSING

    def test_dropped_leaf_sig(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(
            ZoneMutation(algorithm=13, drop_sigs=SigScope.LEAF_A)
        )
        trace = validate_answer(source, config, qname="example.com.")
        assert trace.reason is FailureReason.LEAF_RRSIG_MISSING

    def test_ksk_sig_dropped(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(
            ZoneMutation(algorithm=13, drop_sigs=SigScope.KSK_SIG)
        )
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.KSK_SIG_MISSING

    def test_ksk_sig_corrupted(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(
            ZoneMutation(algorithm=13, corrupt_sigs=SigScope.KSK_SIG)
        )
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.KSK_SIG_INVALID

    def test_all_dnskey_sigs_corrupted(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(
            ZoneMutation(algorithm=13, corrupt_sigs=SigScope.DNSKEY_SIGS)
        )
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DNSKEY_SIG_INVALID


def set_dnskey_sigs(child, *sigs):
    """Make ``sigs`` the only RRSIGs over the child's DNSKEY RRset."""
    apex_sigs = child.zone.find(ZONE, RdataType.RRSIG)
    others = [rd for rd in apex_sigs.rdatas if rd.type_covered != RdataType.DNSKEY]
    child.zone.replace(
        RRset.of(ZONE, RdataType.RRSIG, *sigs, *others, ttl=apex_sigs.ttl)
    )


class TestSignatureWindowGatesTheDnskeyProof:
    """RFC 4035 section 5.3.1: a signature outside its validity window
    proves nothing.  ``_validate_dnskey`` used to ask only that *some*
    anchored RRSIG be in-window and then accept *any* that verified."""

    EXPIRED = SigningPolicy(inception=NOW - 30 * 86400, expiration=NOW - 86400)

    def world(self):
        import dataclasses

        source, config, child = build_world()
        dnskeys = child.zone.find(ZONE, RdataType.DNSKEY)
        live = sign_rrset(dnskeys, child.ksk, ZONE, SigningPolicy.window(NOW))
        forged = dataclasses.replace(live, signature=bytes(len(live.signature)))
        expired = sign_rrset(dnskeys, child.ksk, ZONE, self.EXPIRED)
        assert verify_signature(
            child.ksk.dnskey(), signed_data(dnskeys, expired), expired.signature
        )
        return source, config, child, dnskeys, forged, expired

    def test_expired_genuine_sig_beside_forged_live_one_is_bogus(self):
        source, config, child, _dnskeys, forged, expired = self.world()
        set_dnskey_sigs(child, forged, expired)
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.BOGUS
        assert trace.reason is FailureReason.DNSKEY_SIG_INVALID

    def test_live_zsk_sig_narrows_it_to_the_sep_path(self):
        source, config, child, dnskeys, forged, expired = self.world()
        by_zsk = sign_rrset(dnskeys, child.zsk, ZONE, SigningPolicy.window(NOW))
        set_dnskey_sigs(child, forged, expired, by_zsk)
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.KSK_SIG_INVALID

    def test_classifier_ignores_expired_sigs_too(self):
        """An expired ZSK signature is not the "other zone key that
        still validates the RRset"."""
        source, config, child, dnskeys, forged, _expired = self.world()
        set_dnskey_sigs(child, forged, sign_rrset(dnskeys, child.zsk, ZONE, self.EXPIRED))
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DNSKEY_SIG_INVALID

    def test_all_expired_still_reads_expired(self):
        source, config, child, _dnskeys, _forged, expired = self.world()
        set_dnskey_sigs(child, expired)
        trace = validate_answer(source, config)
        assert trace.reason is FailureReason.DNSKEY_SIG_EXPIRED
        assert trace.expired_at == expired.expiration


class TestStandbyKskWarning:
    def test_standby_key_warns_but_validates(self):
        source, config, _ = build_world(ZoneMutation(algorithm=13, add_standby_ksk=True))
        trace = validate_answer(source, config)
        assert trace.state is ValidationState.SECURE
        assert FailureReason.STANDBY_KSK_UNSIGNED in trace.warnings

    def test_no_warning_without_standby_key(self):
        source, config, _ = build_world()
        trace = validate_answer(source, config)
        assert trace.warnings == []


class TestValidatorDenialFailures:
    @pytest.mark.parametrize(
        "fields,reason",
        [
            ({"drop_nsec3": True}, FailureReason.NSEC3_RECORDS_MISSING),
            ({"corrupt_nsec3_owner": True}, FailureReason.NSEC3_BAD_HASH),
            ({"corrupt_nsec3_next": True}, FailureReason.NSEC3_BAD_NEXT),
            ({"drop_nsec3param": True}, FailureReason.NSEC3PARAM_MISSING),
            ({"nsec3param_salt_mismatch": True}, FailureReason.NSEC3PARAM_SALT_MISMATCH),
            (
                {"drop_nsec3": True, "drop_nsec3param": True},
                FailureReason.NSEC3_CHAIN_ABSENT,
            ),
        ],
    )
    def test_denial_failures(self, fields, reason):
        mutation = ZoneMutation(algorithm=13, **fields)
        source, config, _ = build_world(mutation)
        trace = validate_answer(source, config, qname="nx.example.com.")
        assert trace.state is ValidationState.BOGUS
        assert trace.reason is reason

    def test_nsec3_sig_failures(self):
        from repro.zones.mutations import SigScope

        for scope, reason in (
            (SigScope.NSEC3_SIGS, FailureReason.NSEC3_RRSIG_MISSING),
        ):
            source, config, _ = build_world(
                ZoneMutation(algorithm=13, drop_sigs=scope)
            )
            trace = validate_answer(source, config, qname="nx.example.com.")
            assert trace.reason is reason

    def test_nsec3_bad_rrsig(self):
        from repro.zones.mutations import SigScope

        source, config, _ = build_world(
            ZoneMutation(algorithm=13, corrupt_sigs=SigScope.NSEC3_SIGS)
        )
        trace = validate_answer(source, config, qname="nx.example.com.")
        assert trace.reason is FailureReason.NSEC3_BAD_RRSIG

    def test_high_iterations_downgrade(self):
        source, config, _ = build_world(ZoneMutation(algorithm=13, nsec3_iterations=200))
        trace = validate_answer(source, config, qname="nx.example.com.")
        assert trace.state is ValidationState.INSECURE
        assert trace.reason is FailureReason.NSEC3_ITERATIONS_TOO_HIGH
