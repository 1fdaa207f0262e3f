"""Plain-NSEC zones: chain construction, serving, and validation."""

import pytest

from repro.dns.dnssec_records import NSEC
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.nsec import canonical_key, nsec_covers, nsec_matches
from repro.net.endpoint import Endpoint
from repro.resolver.profiles import UNBOUND
from repro.resolver.recursive import RecursiveResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

NOW = 1_684_108_800
ZONE_NAME = Name.from_text("nsec.test.")
ROOT_IP, DOM_IP = "192.0.9.81", "192.0.9.82"


@pytest.fixture(scope="module")
def built():
    builder = ZoneBuilder(
        ZONE_NAME, now=NOW, mutation=ZoneMutation(algorithm=13, denial="nsec")
    )
    ns = Name.from_text("ns1.nsec.test.")
    builder.add(RRset.of(ZONE_NAME, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address=DOM_IP)))
    builder.add(RRset.of(Name.from_text("alpha.nsec.test."), RdataType.A,
                         A(address="203.0.113.1")))
    builder.add(RRset.of(Name.from_text("zulu.nsec.test."), RdataType.A,
                         A(address="203.0.113.2")))
    return builder.build()


class TestNsecHelpers:
    def test_canonical_key_order(self):
        a = Name.from_text("a.example.")
        z = Name.from_text("z.example.")
        assert canonical_key(a) < canonical_key(z)

    def test_covers_simple(self):
        apex = Name.from_text("example.")
        assert nsec_covers(
            Name.from_text("a.example."), Name.from_text("c.example."),
            Name.from_text("b.example."), apex,
        )
        assert not nsec_covers(
            Name.from_text("a.example."), Name.from_text("c.example."),
            Name.from_text("d.example."), apex,
        )

    def test_wraparound_covers_tail(self):
        apex = Name.from_text("example.")
        assert nsec_covers(
            Name.from_text("z.example."), apex, Name.from_text("zz.example."), apex,
        )

    def test_matches(self):
        assert nsec_matches(Name.from_text("A.example."), Name.from_text("a.example."))


class TestNsecChain:
    def test_chain_built(self, built):
        records = built.zone.nsec_records()
        assert len(records) == len(built.zone.owners())

    def test_chain_closes(self, built):
        records = built.zone.nsec_records()
        owners = sorted(canonical_key(owner) for owner, _ in records)
        nexts = sorted(canonical_key(rd.next_name) for _, rd in records)
        assert owners == nexts

    def test_no_nsec3_in_nsec_zone(self, built):
        assert built.zone.nsec3_records() == []
        assert built.zone.find(ZONE_NAME, RdataType.NSEC3PARAM) is None

    def test_bitmap_lists_types(self, built):
        apex_nsec = built.zone.find(ZONE_NAME, RdataType.NSEC).rdatas[0]
        assert int(RdataType.SOA) in apex_nsec.types
        assert int(RdataType.DNSKEY) in apex_nsec.types
        assert int(RdataType.NSEC) in apex_nsec.types

    def test_nsec_records_signed(self, built):
        for owner, _rd in built.zone.nsec_records():
            assert built.zone.rrsigs_for(owner, RdataType.NSEC) is not None


class TestNsecServing:
    @pytest.fixture()
    def world(self, fabric, built):
        server = AuthoritativeServer("ns1.nsec.test")
        server.add_zone(built.zone)
        fabric.register(DOM_IP, server)

        root_builder = ZoneBuilder(
            Name.root(), now=NOW, mutation=ZoneMutation(algorithm=13), key_seed=4
        )
        ns = Name.from_text("ns1.nsec.test.")
        root_builder.add(RRset.of(ZONE_NAME, RdataType.NS, NS(target=ns)))
        root_builder.add(RRset.of(ns, RdataType.A, A(address=DOM_IP)))
        for ds in built.ds_rdatas:
            root_builder.add(RRset.of(ZONE_NAME, RdataType.DS, ds, ttl=300))
        root = root_builder.build()
        root_server = AuthoritativeServer("root")
        root_server.add_zone(root.zone)
        fabric.register(ROOT_IP, root_server)

        from repro.dnssec.ds import make_ds

        return fabric, [make_ds(Name.root(), root.ksk.dnskey(), 2)]

    def test_nxdomain_includes_covering_nsec(self, world, built):
        from repro.dns.message import Message

        fabric, _ = world
        query = Message.make_query("middle.nsec.test.", RdataType.A, want_dnssec=True)
        response = Message.from_wire(fabric.send(DOM_IP, query.to_wire()))
        assert response.rcode == Rcode.NXDOMAIN
        nsec = [r for r in response.authority if r.rdtype == RdataType.NSEC]
        assert nsec

    def test_positive_validates(self, world):
        fabric, anchors = world
        resolver = RecursiveResolver(
            fabric=fabric, profile=UNBOUND, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("alpha.nsec.test.", RdataType.A, want_dnssec=True)
        assert response.rcode == Rcode.NOERROR
        assert response.ad

    def test_nxdomain_validates(self, world):
        fabric, anchors = world
        resolver = RecursiveResolver(
            fabric=fabric, profile=UNBOUND, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("missing.nsec.test.", RdataType.A)
        assert response.rcode == Rcode.NXDOMAIN
        assert not response.ede_codes

    def test_forged_nxdomain_without_proof_is_bogus(self, world):
        """Strip the NSEC records from negative answers: the resolver must
        refuse the unproven NXDOMAIN."""
        fabric, anchors = world

        class Stripper(Endpoint):
            def __init__(self, inner):
                self.inner = inner

            def handle_query(self, query, source):
                response = self.inner.handle_query(query, source)
                response.authority = [
                    r for r in response.authority
                    if r.rdtype not in (RdataType.NSEC, RdataType.RRSIG)
                ]
                return response

        inner = fabric._endpoints[(DOM_IP, 53)]
        fabric.unregister(DOM_IP)
        fabric.register(DOM_IP, Stripper(inner))
        resolver = RecursiveResolver(
            fabric=fabric, profile=UNBOUND, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("missing.nsec.test.", RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
