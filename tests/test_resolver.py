"""Iterative engine and recursive resolver against a miniature Internet."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import AAAA, A, CNAME, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.trace import ResolutionEvent
from repro.net.endpoint import Endpoint
from repro.net.fabric import NetworkFabric
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.resolver.profiles import BIND, CLOUDFLARE, UNBOUND
from repro.resolver import recursive
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

ROOT_IP = "192.0.9.1"
TLD_IP = "192.0.9.2"
DOM_IP = "192.0.9.3"

TEST = Name.from_text("test.")
DOMAIN = Name.from_text("example.test.")
#: 60 AAAA records: about 1.7 kB, past the 1232 octets every client here
#: asks with.
BIG = Name.from_text("big.example.test.")
BIG_AAAA = [AAAA(address=f"2001:db8::{i:x}") for i in range(1, 61)]


def _zone(origin: Name, ns_ip: str, extra=None, signed=False) -> tuple:
    builder = ZoneBuilder(
        origin, now=1_684_108_800,
        mutation=ZoneMutation(algorithm=13, signed=signed),
    )
    ns = Name.from_text("ns1", origin=origin)
    builder.add(RRset.of(origin, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address=ns_ip)))
    builder.ensure_soa()
    for rrset in extra or []:
        builder.add(rrset)
    return builder.build()


@pytest.fixture()
def mini_fabric():
    """Unsigned three-level world: . -> test. -> example.test."""
    fabric = NetworkFabric()

    dom = _zone(
        DOMAIN, DOM_IP,
        extra=[
            RRset.of(DOMAIN, RdataType.A, A(address="203.0.113.80"), ttl=120),
            RRset.of(
                Name.from_text("www.example.test."), RdataType.CNAME,
                CNAME(target=DOMAIN),
            ),
            RRset.of(BIG, RdataType.AAAA, *BIG_AAAA, ttl=120),
        ],
    )
    dom_server = AuthoritativeServer("ns1.example.test")
    dom_server.add_zone(dom.zone)
    fabric.register(DOM_IP, dom_server)

    tld = _zone(
        TEST, TLD_IP,
        extra=[
            RRset.of(DOMAIN, RdataType.NS, NS(target=Name.from_text("ns1.example.test."))),
            RRset.of(Name.from_text("ns1.example.test."), RdataType.A, A(address=DOM_IP)),
        ],
    )
    tld_server = AuthoritativeServer("ns1.test")
    tld_server.add_zone(tld.zone)
    fabric.register(TLD_IP, tld_server)

    root = _zone(
        Name.root(), ROOT_IP,
        extra=[
            RRset.of(TEST, RdataType.NS, NS(target=Name.from_text("ns1.test."))),
            RRset.of(Name.from_text("ns1.test."), RdataType.A, A(address=TLD_IP)),
        ],
    )
    root_server = AuthoritativeServer("root")
    root_server.add_zone(root.zone)
    fabric.register(ROOT_IP, root_server)
    return fabric


@pytest.fixture()
def engine(mini_fabric):
    return IterativeEngine(mini_fabric, [ROOT_IP])


class TestIterativeEngine:
    def test_walks_referrals(self, engine):
        events = []
        result = engine.resolve(DOMAIN, RdataType.A, events)
        assert result.ok
        assert result.rcode == Rcode.NOERROR
        assert result.zone_path == [Name.root(), TEST, DOMAIN]
        answers = [r for r in result.answer if r.rdtype == RdataType.A]
        assert answers and answers[0].rdatas == [A(address="203.0.113.80")]

    def test_learns_zone_servers(self, engine):
        engine.resolve(DOMAIN, RdataType.A, [])
        assert engine.zone_servers[TEST] == [TLD_IP]
        assert engine.zone_servers[DOMAIN] == [DOM_IP]

    def test_second_query_skips_root(self, engine, mini_fabric):
        engine.resolve(DOMAIN, RdataType.A, [])
        sent_before = mini_fabric.stats.datagrams_sent
        engine.resolve(Name.from_text("other.test."), RdataType.A, [])
        # starts at test., so only the TLD is asked (1 query, NXDOMAIN).
        assert mini_fabric.stats.datagrams_sent - sent_before == 1

    def test_nxdomain(self, engine):
        events = []
        result = engine.resolve(Name.from_text("missing.example.test."), RdataType.A, events)
        assert result.rcode == Rcode.NXDOMAIN
        assert result.ok

    def test_cname_chase(self, engine):
        events = []
        result = engine.resolve(Name.from_text("www.example.test."), RdataType.A, events)
        assert result.ok
        assert any(e.event is ResolutionEvent.CNAME_CHASED for e in events)
        types = {r.rdtype for r in result.answer}
        assert RdataType.CNAME in types and RdataType.A in types

    def test_unreachable_authority(self, mini_fabric, engine):
        mini_fabric.unregister(DOM_IP)
        events = []
        result = engine.resolve(DOMAIN, RdataType.A, events)
        assert not result.ok
        assert result.rcode == Rcode.SERVFAIL
        kinds = {e.event for e in events}
        assert ResolutionEvent.SERVER_TIMEOUT in kinds
        assert ResolutionEvent.ALL_SERVERS_FAILED in kinds

    def test_mismatched_id_ignored(self, mini_fabric):
        class Liar(Endpoint):
            def handle_query(self, query, source):
                response = query.make_response()
                response.id = (query.id + 1) & 0xFFFF
                return response

        mini_fabric.unregister(ROOT_IP)
        mini_fabric.register(ROOT_IP, Liar())
        engine = IterativeEngine(mini_fabric, [ROOT_IP], EngineConfig(retries=0))
        events = []
        result = engine.resolve(DOMAIN, RdataType.A, events)
        assert not result.ok


class TestRecursiveResolver:
    @pytest.fixture()
    def resolver(self, mini_fabric):
        return RecursiveResolver(
            fabric=mini_fabric, profile=CLOUDFLARE, root_hints=[ROOT_IP],
            validate=False,
        )

    def test_positive_resolution(self, resolver):
        response = resolver.resolve(DOMAIN, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.find_answer(DOMAIN, RdataType.A) is not None
        assert not response.ede_codes

    def test_caching(self, resolver, mini_fabric):
        resolver.resolve(DOMAIN, RdataType.A)
        before = mini_fabric.stats.datagrams_sent
        resolver.resolve(DOMAIN, RdataType.A)
        assert mini_fabric.stats.datagrams_sent == before
        assert resolver.cache.stats.hits >= 1

    def test_negative_caching(self, resolver, mini_fabric):
        qname = Name.from_text("gone.example.test.")
        assert resolver.resolve(qname).rcode == Rcode.NXDOMAIN
        before = mini_fabric.stats.datagrams_sent
        assert resolver.resolve(qname).rcode == Rcode.NXDOMAIN
        assert mini_fabric.stats.datagrams_sent == before

    def test_servfail_gets_ede_22(self, resolver, mini_fabric):
        mini_fabric.unregister(DOM_IP)
        response = resolver.resolve(DOMAIN, RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert 22 in response.ede_codes
        assert 23 in response.ede_codes  # timeouts are network errors

    def test_error_cache_gives_ede_13(self, resolver, mini_fabric):
        mini_fabric.unregister(DOM_IP)
        resolver.resolve(DOMAIN, RdataType.A)
        response = resolver.resolve(DOMAIN, RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert response.ede_codes == (13,)

    def test_stale_answer_after_outage(self, mini_fabric):
        resolver = RecursiveResolver(
            fabric=mini_fabric, profile=CLOUDFLARE, root_hints=[ROOT_IP],
            validate=False,
        )
        assert resolver.resolve(DOMAIN, RdataType.A).rcode == Rcode.NOERROR
        mini_fabric.clock.advance(200)  # past the 120s TTL
        mini_fabric.unregister(DOM_IP)
        response = resolver.resolve(DOMAIN, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert 3 in response.ede_codes
        assert 22 in response.ede_codes

    def test_bind_profile_emits_no_transport_ede(self, mini_fabric):
        resolver = RecursiveResolver(
            fabric=mini_fabric, profile=BIND, root_hints=[ROOT_IP], validate=False
        )
        mini_fabric.unregister(DOM_IP)
        response = resolver.resolve(DOMAIN, RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert response.ede_codes == ()

    def test_no_ede_without_edns(self, resolver, mini_fabric):
        mini_fabric.unregister(DOM_IP)
        query = Message.make_query(DOMAIN, RdataType.A, use_edns=False)
        response = resolver.handle_query(query)
        assert response.rcode == Rcode.SERVFAIL
        assert response.edns is None

    def test_resolver_as_fabric_endpoint(self, resolver, mini_fabric):
        mini_fabric.register("192.0.9.53", resolver)
        stub = StubResolver(mini_fabric, "192.0.9.53")
        answer = stub.query(DOMAIN, RdataType.A)
        assert answer.ok
        assert answer.addresses == ["203.0.113.80"]

    def test_answer_past_every_datagram_reaches_the_stub_whole(
        self, resolver, mini_fabric
    ):
        """Every hop's datagram reply comes back TC=1 — authority to
        resolver, resolver to forwarder, forwarder to stub — and every
        asker retries over TCP."""
        mini_fabric.register("192.0.9.53", resolver)
        mini_fabric.register(
            "192.0.9.54", ForwardingResolver(fabric=mini_fabric, upstreams=["192.0.9.53"])
        )
        answer = StubResolver(mini_fabric, "192.0.9.54").query(BIG, RdataType.AAAA)
        assert answer.ok
        assert sorted(answer.addresses) == sorted(rdata.address for rdata in BIG_AAAA)

    def test_stub_records_ede(self, resolver, mini_fabric):
        mini_fabric.unregister(DOM_IP)
        mini_fabric.register("192.0.9.53", resolver)
        stub = StubResolver(mini_fabric, "192.0.9.53")
        answer = stub.query(DOMAIN, RdataType.A)
        assert answer.rcode == Rcode.SERVFAIL
        assert 22 in answer.ede_codes
        record = answer.to_record()
        assert record["rcode"] == "SERVFAIL"
        assert any(e["info_code"] == 22 for e in record["ede"])


class TestInfraCacheBounded:
    """The infra cache used to keep one entry per ``(zone, qname, type)``
    ever fetched and never dropped an expired one."""

    CAPACITY = 16

    def test_distinct_fetches_past_their_ttl_stay_within_capacity(
        self, mini_fabric, monkeypatch
    ):
        monkeypatch.setattr(recursive, "INFRA_CACHE_CAPACITY", self.CAPACITY)
        resolver = RecursiveResolver(
            fabric=mini_fabric, profile=CLOUDFLARE, root_hints=[ROOT_IP],
            validate=False,
        )
        resolver.resolve(DOMAIN, RdataType.A)  # learn example.test.'s servers
        for batch in range(3):
            for i in range(self.CAPACITY):
                qname = Name.from_text(f"h{batch}-{i}.example.test.")
                assert resolver.fetch_from_zone(DOMAIN, qname, RdataType.A).ok
                assert len(resolver._infra_cache) <= self.CAPACITY
            mini_fabric.clock.advance(301.0)  # past the 300 s infra TTL
        assert resolver.stats.infra_misses == 3 * self.CAPACITY
        assert resolver._infra_cache.expired > 0
        # Bounding it costs no hit: an entry still inside its TTL is served.
        last = Name.from_text("again.example.test.")
        resolver.fetch_from_zone(DOMAIN, last, RdataType.A)
        resolver.fetch_from_zone(DOMAIN, last, RdataType.A)
        assert resolver.stats.infra_hits == 1


class TestValidationIntegration:
    """End-to-end DNSSEC through the resolver, on the session testbed."""

    def test_secure_domain_sets_ad(self, testbed):
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=UNBOUND,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        deployed = testbed.cases["valid"]
        response = resolver.resolve(deployed.query_name, RdataType.A, want_dnssec=True)
        assert response.rcode == Rcode.NOERROR
        assert response.ad

    def test_bogus_domain_servfails(self, testbed):
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=UNBOUND,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        deployed = testbed.cases["rrsig-exp-all"]
        response = resolver.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert response.ede_codes == (7,)

    def test_cd_flag_skips_validation(self, testbed):
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=UNBOUND,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        deployed = testbed.cases["rrsig-exp-all"]
        response = resolver.resolve(
            deployed.query_name, RdataType.A, checking_disabled=True
        )
        assert response.rcode == Rcode.NOERROR
        assert not response.ad

    def test_unsigned_domain_no_ad(self, testbed):
        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=UNBOUND,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        deployed = testbed.cases["unsigned"]
        response = resolver.resolve(deployed.query_name, RdataType.A)
        assert response.rcode == Rcode.NOERROR
        assert not response.ad
