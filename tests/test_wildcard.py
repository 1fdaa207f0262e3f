"""DNSSEC wildcard synthesis and validation (RFC 4035 section 5.3.4)."""

import pytest

from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.endpoint import Endpoint
from repro.resolver.profiles import CLOUDFLARE, UNBOUND
from repro.resolver.recursive import RecursiveResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

NOW = 1_684_108_800
ROOT_IP, DOM_IP = "192.0.9.41", "192.0.9.42"
ZONE_NAME = Name.from_text("wild.test.")


@pytest.fixture()
def world(fabric):
    builder = ZoneBuilder(ZONE_NAME, now=NOW, mutation=ZoneMutation(algorithm=13))
    ns = Name.from_text("ns1.wild.test.")
    builder.add(RRset.of(ZONE_NAME, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address=DOM_IP)))
    builder.add(
        RRset.of(Name.from_text("*.svc.wild.test."), RdataType.A,
                 A(address="203.0.113.42"))
    )
    built = builder.build()
    server = AuthoritativeServer("ns1.wild.test")
    server.add_zone(built.zone)
    fabric.register(DOM_IP, server)

    root_builder = ZoneBuilder(
        Name.root(), now=NOW, mutation=ZoneMutation(algorithm=13), key_seed=3
    )
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


class TestWildcardServing:
    def test_server_synthesizes(self, world):
        from repro.dns.message import Message

        fabric, _ = world
        query = Message.make_query("anything.svc.wild.test.", RdataType.A,
                                   want_dnssec=True)
        raw = fabric.send(DOM_IP, query.to_wire())
        from repro.dns.message import Message as M

        response = M.from_wire(raw)
        rrset = response.find_answer(
            Name.from_text("anything.svc.wild.test."), RdataType.A
        )
        assert rrset is not None
        assert rrset.rdatas == (A(address="203.0.113.42"),)

    def test_rrsig_labels_field_smaller_than_owner(self, world):
        from repro.dns.message import Message
        from repro.dns.dnssec_records import RRSIG

        fabric, _ = world
        query = Message.make_query("a.b.svc.wild.test.", RdataType.A, want_dnssec=True)
        response = Message.from_wire(fabric.send(DOM_IP, query.to_wire()))
        sigs = [
            rd
            for rrset in response.answer
            if rrset.rdtype == RdataType.RRSIG
            for rd in rrset.rdatas
            if isinstance(rd, RRSIG)
        ]
        assert sigs
        # owner a.b.svc.wild.test. has 5 labels; the wildcard sig says 3.
        assert sigs[0].labels == 3


class TestWildcardValidation:
    @pytest.mark.parametrize("profile", [CLOUDFLARE, UNBOUND], ids=["cf", "unbound"])
    def test_wildcard_answer_validates_secure(self, world, profile):
        fabric, anchors = world
        resolver = RecursiveResolver(
            fabric=fabric, profile=profile, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve(
            "whatever.svc.wild.test.", RdataType.A, want_dnssec=True
        )
        assert response.rcode == Rcode.NOERROR
        assert response.ad, "wildcard-synthesized answer must validate"
        assert not response.ede_codes

    def test_deep_wildcard_match(self, world):
        fabric, anchors = world
        resolver = RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("x.svc.wild.test.", RdataType.A, want_dnssec=True)
        assert response.rcode == Rcode.NOERROR and response.ad

    def test_exact_match_still_validates(self, world):
        fabric, anchors = world
        resolver = RecursiveResolver(
            fabric=fabric, profile=CLOUDFLARE, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("wild.test.", RdataType.NS, want_dnssec=True)
        assert response.rcode == Rcode.NOERROR

    def test_forged_wildcard_data_is_bogus(self, world):
        """If the server swaps the synthesized rdata, validation fails."""
        fabric, anchors = world

        class Tamperer(Endpoint):
            def __init__(self, inner):
                self.inner = inner

            def handle_query(self, query, source):
                response = self.inner.handle_query(query, source)
                # Forged copies: the zone's own RRsets stay as served.
                response.answer = [
                    RRset.of(rrset.name, rrset.rdtype, A(address="198.51.100.66"), ttl=rrset.ttl)
                    if rrset.rdtype == RdataType.A else rrset
                    for rrset in response.answer
                ]
                return response

        inner = fabric._endpoints[(DOM_IP, 53)]
        fabric.unregister(DOM_IP)
        fabric.register(DOM_IP, Tamperer(inner))

        resolver = RecursiveResolver(
            fabric=fabric, profile=UNBOUND, root_hints=[ROOT_IP],
            trust_anchors=anchors,
        )
        response = resolver.resolve("spoofed.svc.wild.test.", RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
