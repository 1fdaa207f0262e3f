"""Values kept on immutable objects equal the values built afresh.

The validator's signed data is assembled from parts kept on the RRset
(:func:`repro.dnssec.signer.canonical_records`) and on the RRSIG
(:meth:`~repro.dns.dnssec_records.RRSIG.rdata_without_signature`); a
DNSKEY keeps its parsed RSA key and its DS digests; a zone keeps a
zone-cut index and a server an origin index, both keyed by folded
labels; a name shares its label tuple as its folded form when it has
no upper-case octet.  Each row states one of these against a reference
written here from the definitions, so a kept value that went stale, or
was keyed by equality where it should be by object, shows as a byte
difference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.dns.dnssec_records import DNSKEY, DS, RRSIG
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireWriter
from repro.dnssec import ds as ds_mod
from repro.dnssec import rsa as rsa_mod
from repro.dnssec import signer as signer_mod
from repro.dnssec import validator as validator_mod
from repro.dnssec.keys import rsa_key_size_bits, verify_signature
from repro.dnssec.signer import signed_data
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner
from repro.scan.wild import WildInternet
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.runner import run_matrix

# ---------------------------------------------------------------------------
# references, from the definitions
# ---------------------------------------------------------------------------


def reference_signed_data(rrset: RRset, rrsig: RRSIG) -> bytes:
    """RFC 4034 section 3.1.8.1, every field written out again."""
    writer = WireWriter(enable_compression=False)
    writer.write_u16(int(rrsig.type_covered))
    writer.write_u8(rrsig.algorithm)
    writer.write_u8(rrsig.labels)
    writer.write_u32(rrsig.original_ttl)
    writer.write_u32(rrsig.expiration)
    writer.write_u32(rrsig.inception)
    writer.write_u16(rrsig.key_tag)
    writer.write_bytes(wire_of(rrsig.signer.folded_labels))
    owner = wire_of(rrset.name.folded_labels)
    for rdata in sorted(rd.to_wire(canonical=True) for rd in rrset.rdatas):
        writer.write_bytes(owner)
        writer.write_u16(int(rrset.rdtype))
        writer.write_u16(int(rrset.rdclass))
        writer.write_u32(rrsig.original_ttl)
        writer.write_u16(len(rdata))
        writer.write_bytes(rdata)
    return writer.getvalue()


def wire_of(labels: tuple[bytes, ...]) -> bytes:
    return b"".join(bytes([len(label)]) + label for label in labels)


def reference_find_zone(server: AuthoritativeServer, qname: Name):
    """One Name per suffix, longest first, looked up by origin."""
    by_origin = {zone.origin: zone for zone in server.zones()}
    labels = qname.labels
    for start in range(len(labels)):
        zone = by_origin.get(Name(labels[start:]))
        if zone is not None:
            return zone
    return None


def reference_zone_cut(zone, qname: Name) -> Name | None:
    """The parent walk: every delegation point from ``qname`` up to the
    apex, the last one seen (the shallowest) wins."""
    if not qname.is_subdomain_of(zone.origin):
        return None
    cuts = []
    current = qname
    while current != zone.origin:
        if zone.find(current, RdataType.NS) is not None:
            cuts.append(current)
        current = current.parent()
    return cuts[-1] if cuts else None


# ---------------------------------------------------------------------------
# one matrix pass and one 500-domain scan, recorded
# ---------------------------------------------------------------------------


def recorded(run) -> tuple[list, list]:
    """Run ``run()`` recording every (RRset, RRSIG, signed data) the
    validator built and every (server, qname) an authoritative server
    answered."""
    checks: list[tuple[RRset, RRSIG, bytes]] = []
    queried: list[tuple[AuthoritativeServer, Name]] = []
    real_signed = validator_mod.signed_data
    real_handle = AuthoritativeServer.handle_query

    def signed(rrset, rrsig):
        data = real_signed(rrset, rrsig)
        checks.append((rrset, rrsig, data))
        return data

    def handle(self, query, source="192.0.2.0"):
        queried.append((self, query.question[0].name))
        return real_handle(self, query, source)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validator_mod, "signed_data", signed)
        patch.setattr(AuthoritativeServer, "handle_query", handle)
        run()
    return checks, queried


@pytest.fixture(scope="module")
def matrix_pass(testbed):
    return recorded(lambda: run_matrix(testbed))


@pytest.fixture(scope="module")
def scan_pass():
    wild = WildInternet(generate_population(population_config_for(500)))
    return recorded(lambda: WildScanner(wild).scan(use_lanes=False))


@pytest.fixture(params=["matrix", "scan"])
def world_pass(request, matrix_pass, scan_pass):
    return matrix_pass if request.param == "matrix" else scan_pass


class TestSignedData:
    def test_every_validator_check_equals_a_fresh_build(self, world_pass):
        checks, _ = world_pass
        assert len(checks) > 100
        for rrset, rrsig, data in checks:
            assert data == reference_signed_data(rrset, rrsig)
            # ... and once more, now from the parts both objects kept
            assert signed_data(rrset, rrsig) == data

    def test_an_equal_but_distinct_rrset_makes_its_own(self, monkeypatch):
        made = []
        real = signer_mod._canonical_records
        monkeypatch.setattr(
            signer_mod, "_canonical_records", lambda rrset: made.append(rrset) or real(rrset)
        )
        owner = Name.from_text("www.example.com.")
        first = RRset.of(owner, RdataType.A, A(address="192.0.2.1"), A(address="192.0.2.2"))
        twin = RRset.of(owner, RdataType.A, A(address="192.0.2.1"), A(address="192.0.2.2"))
        assert first == twin and first is not twin
        kept = signer_mod.canonical_records(first)
        assert signer_mod.canonical_records(first) is kept
        assert made == [first]
        assert signer_mod.canonical_records(twin) == kept
        assert signer_mod.canonical_records(twin) is not kept
        assert [id(rrset) for rrset in made] == [id(first), id(twin)]

    def test_original_ttl_is_each_signatures_own(self):
        rrset = RRset.of(
            Name.from_text("Mail.Example.COM."), RdataType.A,
            A(address="192.0.2.9"), A(address="192.0.2.3"), ttl=300,
        )
        short, long = (
            RRSIG(
                type_covered=RdataType.A, algorithm=8, labels=3, original_ttl=ttl,
                expiration=2_000_000_000, inception=1_000_000_000, key_tag=4242,
                signer=Name.from_text("example.com."), signature=b"\x01" * 64,
            )
            for ttl in (300, 3600)
        )
        assert signed_data(rrset, short) != signed_data(rrset, long)
        for sig in (short, long, short, long):
            assert signed_data(rrset, sig) == reference_signed_data(rrset, sig)

    def test_the_signer_keeps_nothing_on_the_zones_rrset(self):
        """A slot signs once: the RRset it signed holds no kept bytes
        until a validator reads it."""
        from repro.dnssec.keys import KeyPair
        from repro.dnssec.signer import SigningPolicy, sign_rrset

        rrset = RRset.of(Name.from_text("example."), RdataType.A, A(address="192.0.2.1"))
        key = KeyPair.generate(algorithm=13, seed=3)
        sig = sign_rrset(rrset, key, Name.from_text("example."), SigningPolicy.window(10**9))
        assert not hasattr(rrset, "_canonical")
        assert verify_signature(key.dnskey(), signed_data(rrset, sig), sig.signature)
        assert hasattr(rrset, "_canonical")


class TestKeys:
    def test_an_unparseable_rsa_key_stays_false(self, monkeypatch):
        parses = []
        real = rsa_mod.RsaPublicKey.from_dnskey_format
        monkeypatch.setattr(
            rsa_mod.RsaPublicKey, "from_dnskey_format",
            classmethod(lambda cls, data: parses.append(data) or real.__func__(cls, data)),
        )
        for key in (b"", b"\x03\x01\x00", b"\x01\x03" + bytes(64)):
            dnskey = DNSKEY(flags=256, algorithm=8, key=key)
            for _ in range(3):
                assert verify_signature(dnskey, b"message", b"\x00" * 64) is False
                assert rsa_key_size_bits(dnskey) is None
        assert len(parses) == 3  # one parse per DNSKEY, the failure kept

    def test_a_parsed_key_is_read_once_and_checks_every_message(self, monkeypatch):
        key = rsa_mod.generate_keypair(bits=512, seed=11)
        dnskey = DNSKEY(flags=257, algorithm=8, key=key.public.to_dnskey_format())
        good = rsa_mod.sign(key, b"one", "sha256")
        parses = []
        real = rsa_mod.RsaPublicKey.from_dnskey_format
        monkeypatch.setattr(
            rsa_mod.RsaPublicKey, "from_dnskey_format",
            classmethod(lambda cls, data: parses.append(data) or real.__func__(cls, data)),
        )
        for _ in range(3):
            assert verify_signature(dnskey, b"one", good)
            assert not verify_signature(dnskey, b"two", good)
            assert rsa_key_size_bits(dnskey) == 512
        assert len(parses) == 1

    def test_each_ds_compares_its_own_digest(self):
        from repro.dnssec.ds import make_ds

        dnskey = DNSKEY(flags=257, algorithm=13, key=bytes(range(64)))
        owner = Name.from_text("Example.")
        good = make_ds(owner, dnskey, 2)
        bad = DS(key_tag=good.key_tag, algorithm=13, digest_type=2, digest=bytes(32))
        sha1 = make_ds(Name.from_text("example."), dnskey, 1)
        other_owner = make_ds(Name.from_text("other."), dnskey, 2)
        for _ in range(2):
            assert ds_mod.ds_matches_dnskey(good, owner, dnskey)
            assert not ds_mod.ds_matches_dnskey(bad, owner, dnskey)
            assert ds_mod.ds_matches_dnskey(sha1, owner, dnskey)
            assert not ds_mod.ds_matches_dnskey(other_owner, owner, dnskey)
            assert ds_mod.ds_matches_dnskey(other_owner, Name.from_text("OTHER."), dnskey)
            unknown = DS(key_tag=good.key_tag, algorithm=13, digest_type=99, digest=b"")
            assert not ds_mod.ds_matches_dnskey(unknown, owner, dnskey)


# ---------------------------------------------------------------------------
# the server walks
# ---------------------------------------------------------------------------


class TestWalks:
    def test_find_zone_and_find_zone_cut_equal_the_walks(self, world_pass):
        _, queried = world_pass
        assert len(queried) > 100
        cuts = 0
        for server, qname in queried:
            zone = server.find_zone(qname)
            if type(server) is AuthoritativeServer:
                assert zone is reference_find_zone(server, qname)
            if zone is None:
                continue
            got, want = zone.find_zone_cut(qname), reference_zone_cut(zone, qname)
            assert got == want
            if want is not None:
                cuts += 1
                assert got.labels == want.labels  # spelt as in the qname
        assert cuts > 0

    def test_the_cut_index_is_dropped_on_every_change(self):
        from repro.dns.rdata import NS
        from repro.zones.zone import Zone

        zone = Zone(Name.from_text("example."))
        deep = Name.from_text("a.b.sub.example.")
        sub = Name.from_text("sub.example.")
        assert zone.find_zone_cut(deep) is None
        zone.add(RRset.of(sub, RdataType.NS, NS(target=Name.from_text("ns.other."))))
        assert zone.find_zone_cut(deep) == sub
        zone.replace(RRset.of(
            Name.from_text("B.sub.example."), RdataType.NS,
            NS(target=Name.from_text("ns.other.")),
        ))
        assert zone.find_zone_cut(deep) == sub  # the shallowest cut wins
        zone.remove(sub, RdataType.NS)
        assert zone.find_zone_cut(deep).labels == (b"b", b"sub", b"example", b"")
        assert zone.find_zone_cut(Name.from_text("A.B.SUB.example.")).labels == (
            b"B", b"SUB", b"example", b"",
        )


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

MIXED_LABELS = st.lists(
    st.text(alphabet="aAbBqQzZ09-_", min_size=1, max_size=12).map(str.encode),
    max_size=5,
)


@given(MIXED_LABELS)
def test_folded_sharing_changes_no_name_fact(labels):
    labels = tuple(labels) + (b"",)
    lowered = tuple(label.lower() for label in labels)
    lower_case = lowered == labels
    for name in (Name(labels), Name.from_wire_labels(list(labels))):
        assert name.labels == labels
        assert name.folded_labels == lowered
        assert (name.folded_labels is name.labels) == lower_case
        assert name == Name(lowered) and hash(name) == hash(Name(lowered)) == hash(lowered)
        assert name.canonical_wire() == wire_of(lowered)
        assert name.to_wire() == wire_of(labels)
        assert len(name) == len(wire_of(labels))
        assert name.suffixes == tuple(lowered[i:] for i in range(len(lowered) - 1))
        assert name.suffixes is name.suffixes
