"""Authoritative server: answers, referrals, denial, ACLs, pathologies."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset, find_rrset
from repro.dns.types import RdataType
from repro.server.acl import Acl
from repro.server.authoritative import AuthoritativeServer
from repro.server.behaviors import Behavior, BehaviorServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation
from repro.dnssec.ds import make_ds

from .authorities import make_simple_authority

NOW = 1_684_108_800
ORIGIN = Name.from_text("example.com.")


def name(text: str) -> Name:
    return Name.from_text(text, origin=ORIGIN)


@pytest.fixture(scope="module")
def server() -> AuthoritativeServer:
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=ZoneMutation(algorithm=13))
    builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=name("ns1"))))
    builder.add(RRset.of(name("ns1"), RdataType.A, A(address="192.0.9.53")))
    builder.add(RRset.of(ORIGIN, RdataType.A, A(address="192.0.9.80")))
    # TTLs other than the builder's 300 s default, one behind a wildcard
    builder.add(RRset.of(name("www"), RdataType.A, A(address="192.0.9.81"), ttl=3600))
    builder.add(RRset.of(name("*.wild"), RdataType.A, A(address="192.0.9.82"), ttl=7200))
    # signed delegation
    builder.add(RRset.of(name("signedsub"), RdataType.NS, NS(target=name("ns1.signedsub"))))
    builder.add(RRset.of(name("ns1.signedsub"), RdataType.A, A(address="192.0.9.54")))
    from repro.dnssec.keys import KSK_FLAGS, KeyPair

    sub_ksk = KeyPair.generate(13, KSK_FLAGS, seed=123)
    builder.add(
        RRset.of(name("signedsub"), RdataType.DS, make_ds(name("signedsub"), sub_ksk.dnskey()))
    )
    # unsigned delegation
    builder.add(RRset.of(name("plainsub"), RdataType.NS, NS(target=name("ns1.plainsub"))))
    builder.add(RRset.of(name("ns1.plainsub"), RdataType.A, A(address="192.0.9.55")))
    built = builder.build()
    server = AuthoritativeServer(name="ns1.example.com")
    server.add_zone(built.zone)
    return server


def ask(server, qname, rdtype=RdataType.A, dnssec=True, source="198.51.100.77"):
    query = Message.make_query(Name.from_text(qname), rdtype, want_dnssec=dnssec)
    return server.handle_query(query, source)


class TestAnswers:
    def test_positive_answer_aa(self, server):
        response = ask(server, "example.com.")
        assert response.aa
        assert response.rcode == Rcode.NOERROR
        assert response.find_answer(ORIGIN, RdataType.A) is not None

    def test_rrsigs_included_with_do(self, server):
        response = ask(server, "example.com.", dnssec=True)
        assert any(r.rdtype == RdataType.RRSIG for r in response.answer)

    def test_no_rrsigs_without_do(self, server):
        response = ask(server, "example.com.", dnssec=False)
        assert not any(r.rdtype == RdataType.RRSIG for r in response.answer)

    @pytest.mark.parametrize(
        "qname, answer_ttl",
        [
            ("www.example.com.", 3600),
            ("anything.wild.example.com.", 7200),  # wildcard-synthesised owner
            ("nx.example.com.", None),  # SOA + NSEC3 denial
            ("x.signedsub.example.com.", None),  # referral: DS
        ],
    )
    def test_rrsig_ttl_matches_the_rrset_it_covers(self, server, qname, answer_ttl):
        """RFC 4034 section 3: "The TTL value of an RRSIG RR MUST match
        the TTL value of the RRset it covers." """
        response = ask(server, qname)
        if answer_ttl is not None:
            assert response.answer[0].ttl == answer_ttl
        checked = 0
        for section in (response.answer, response.authority):
            for sigs in section:
                if sigs.rdtype != RdataType.RRSIG:
                    continue
                (covered,) = {rd.type_covered for rd in sigs.rdatas}
                target = find_rrset(section, sigs.name, covered)
                assert target is not None
                assert sigs.ttl == target.ttl == sigs.rdatas[0].original_ttl
                checked += 1
        assert checked

    def test_dnskey_answer(self, server):
        response = ask(server, "example.com.", RdataType.DNSKEY)
        rrset = response.find_answer(ORIGIN, RdataType.DNSKEY)
        assert rrset is not None and len(rrset) == 2

    def test_nxdomain_has_soa_and_denial(self, server):
        response = ask(server, "nx.example.com.")
        assert response.rcode == Rcode.NXDOMAIN
        types = {r.rdtype for r in response.authority}
        assert RdataType.SOA in types
        assert RdataType.NSEC3 in types

    def test_nodata_keeps_noerror(self, server):
        response = ask(server, "example.com.", RdataType.MX)
        assert response.rcode == Rcode.NOERROR
        assert not response.answer

    def test_wire_round_trip(self, server):
        query = Message.make_query("example.com.", want_dnssec=True)
        raw = server.handle_datagram(query.to_wire(), "198.51.100.77")
        decoded = Message.from_wire(raw)
        assert decoded.id == query.id
        assert decoded.qr

    def test_garbage_datagram_formerr(self, server):
        raw = server.handle_datagram(b"\x00\x01", "198.51.100.77")
        assert Message.from_wire(raw).rcode == Rcode.FORMERR

    def test_unknown_zone_refused(self, server):
        response = ask(server, "other.org.")
        assert response.rcode == Rcode.REFUSED


class TestReferrals:
    def test_referral_structure(self, server):
        response = ask(server, "www.signedsub.example.com.")
        assert not response.aa
        ns = [r for r in response.authority if r.rdtype == RdataType.NS]
        assert ns and ns[0].name == name("signedsub")
        glue = [r for r in response.additional if r.rdtype == RdataType.A]
        assert glue and glue[0].name == name("ns1.signedsub")

    def test_signed_referral_carries_ds(self, server):
        response = ask(server, "www.signedsub.example.com.")
        assert any(r.rdtype == RdataType.DS for r in response.authority)

    def test_unsigned_referral_carries_denial(self, server):
        response = ask(server, "www.plainsub.example.com.")
        assert not any(r.rdtype == RdataType.DS for r in response.authority)
        assert any(r.rdtype == RdataType.NSEC3 for r in response.authority)

    def test_ds_query_at_cut_answered_authoritatively(self, server):
        response = ask(server, "signedsub.example.com.", RdataType.DS)
        assert response.aa
        assert response.find_answer(name("signedsub"), RdataType.DS) is not None


class TestAcl:
    def test_acl_none_refuses(self):
        server = make_simple_authority(Name.from_text("closed.test."))
        server.acl = Acl.none()
        response = ask(server, "closed.test.")
        assert response.rcode == Rcode.REFUSED

    def test_acl_localhost(self):
        server = make_simple_authority(Name.from_text("local.test."))
        server.acl = Acl.localhost()
        assert ask(server, "local.test.", source="127.0.0.1").rcode == Rcode.NOERROR
        assert ask(server, "local.test.", source="198.51.100.9").rcode == Rcode.REFUSED

    def test_acl_any(self):
        assert Acl.any().allows("8.8.8.8")
        assert Acl.any().allows("2001:db8::1")

    def test_acl_prefix(self):
        acl = Acl(prefixes=["198.51.0.0/16"])
        assert acl.allows("198.51.2.3")
        assert not acl.allows("198.52.2.3")

    def test_acl_from_keyword(self):
        assert Acl.from_keyword(None).name == "any"
        assert Acl.from_keyword("none").prefixes == []
        assert Acl.from_keyword("localhost").allows("::1")

    def test_acl_garbage_source(self):
        assert not Acl.any().allows("not-an-ip")


class TestBehaviors:
    @pytest.fixture()
    def inner(self):
        return make_simple_authority(Name.from_text("b.test."), address="192.0.9.77")

    def query_wire(self, qname="b.test."):
        return Message.make_query(qname).to_wire()

    def test_refused(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.REFUSED)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.REFUSED

    def test_servfail(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.SERVFAIL)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.SERVFAIL

    def test_notauth(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.NOTAUTH)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.NOTAUTH

    def test_timeout_returns_none(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.TIMEOUT)
        assert server.handle_datagram(self.query_wire(), "1.2.3.4") is None

    def test_no_edns_strips_opt(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.NO_EDNS)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.edns is None

    def test_mismatched_question(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.MISMATCHED_QUESTION)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.question[0].name == Name.from_text("wrong.invalid.")

    def test_refuse_non_recursive(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.REFUSE_NON_RECURSIVE)
        query = Message.make_query("b.test.", recursion_desired=False)
        response = Message.from_wire(server.handle_datagram(query.to_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.REFUSED
        query = Message.make_query("b.test.", recursion_desired=True)
        response = Message.from_wire(server.handle_datagram(query.to_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.NOERROR

    def test_normal_passthrough(self, inner):
        server = BehaviorServer(inner=inner, behavior=Behavior.NORMAL)
        response = Message.from_wire(server.handle_datagram(self.query_wire(), "1.2.3.4"))
        assert response.rcode == Rcode.NOERROR
        assert response.find_answer(Name.from_text("b.test."), RdataType.A)
