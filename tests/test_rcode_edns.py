"""RCODE splitting/joining, EDNS option plumbing, version negotiation."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ResolverCluster
from repro.dns import rcode as rcode_mod
from repro.dns.edns import (
    CookieOption,
    Edns,
    EdnsOption,
    OptionCode,
    PaddingOption,
)
from repro.dns.exceptions import OptionError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.dns.wire import WireReader, WireWriter
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import FrontendConfig, ResilientFrontend
from repro.scan.wild import (
    CnameLoopServer,
    HostingServer,
    StaleFlippingServer,
    VirtualTldServer,
    WildInternet,
)
from repro.server.behaviors import BehaviorServer, make_simple_authority
from repro.testbed.replicas import ReplicaEndpoint


class TestRcode:
    def test_header_bits(self):
        assert rcode_mod.header_bits(Rcode.BADVERS) == 0
        assert rcode_mod.header_bits(Rcode.NXDOMAIN) == 3

    def test_extended_bits(self):
        assert rcode_mod.extended_bits(Rcode.BADVERS) == 1
        assert rcode_mod.extended_bits(Rcode.SERVFAIL) == 0

    def test_join(self):
        assert rcode_mod.join(0, 1) == 16

    @given(st.integers(min_value=0, max_value=0xFFF))
    def test_property_split_join(self, value):
        assert rcode_mod.join(
            rcode_mod.header_bits(value), rcode_mod.extended_bits(value)
        ) == value

    def test_make_from_string(self):
        assert Rcode.make("servfail") is Rcode.SERVFAIL

    def test_make_from_int(self):
        assert Rcode.make(5) is Rcode.REFUSED

    def test_str(self):
        assert str(Rcode.NXDOMAIN) == "NXDOMAIN"

    def test_notauth_is_nine(self):
        # The value the paper's Cached Error domains kept returning.
        assert Rcode.NOTAUTH == 9


class TestEdnsWire:
    def _round_trip(self, edns: Edns) -> Edns:
        writer = WireWriter()
        edns.write(writer)
        reader = WireReader(writer.getvalue())
        assert reader.read_u8() == 0  # root owner
        assert reader.read_u16() == 41  # OPT
        klass = reader.read_u16()
        ttl = reader.read_u32()
        rdlen = reader.read_u16()
        rdata = reader.read_bytes(rdlen)
        return Edns.from_opt_fields(klass, ttl, rdata)

    def test_payload_round_trip(self):
        assert self._round_trip(Edns(payload=4096)).payload == 4096

    def test_do_flag(self):
        assert self._round_trip(Edns(dnssec_ok=True)).dnssec_ok
        assert not self._round_trip(Edns(dnssec_ok=False)).dnssec_ok

    def test_version(self):
        assert self._round_trip(Edns(version=0)).version == 0

    def test_extended_rcode_bits(self):
        decoded = self._round_trip(Edns(extended_rcode_bits=0xAB))
        assert decoded.extended_rcode_bits == 0xAB

    def test_options_round_trip(self):
        edns = Edns(options=[EdnsOption(code=99, data=b"zz")])
        decoded = self._round_trip(edns)
        assert decoded.options[0].code == 99
        assert decoded.options[0].data == b"zz"

    def test_truncated_option_rejected(self):
        with pytest.raises(OptionError):
            Edns.from_opt_fields(1232, 0, b"\x00\x0f\x00")

    def test_option_accessors(self):
        edns = Edns(options=[EdnsOption(code=5, data=b"a"), EdnsOption(code=5, data=b"b")])
        assert edns.option(5).data == b"a"
        assert len(edns.options_with_code(5)) == 2
        assert edns.option(7) is None


class TestWellKnownOptions:
    def test_cookie_parses(self):
        option = EdnsOption.parse(OptionCode.COOKIE, b"12345678server00")
        assert isinstance(option, CookieOption)
        assert option.client_cookie == b"12345678"
        assert option.server_cookie == b"server00"

    def test_padding(self):
        option = PaddingOption.of_length(8)
        assert option.to_wire_data() == b"\x00" * 8
        parsed = EdnsOption.parse(OptionCode.PADDING, b"\x00\x00")
        assert isinstance(parsed, PaddingOption)

    def test_unknown_option_is_generic(self):
        option = EdnsOption.parse(61234, b"opaque")
        assert type(option) is EdnsOption
        assert option.data == b"opaque"


# -- RFC 6891 section 6.1.3: version negotiation --------------------------------------

CLIENT = "198.51.100.7"


def _versioned_query(qname: str, version: int, rdtype=RdataType.AAAA) -> Message:
    query = Message.make_query(qname, rdtype, want_dnssec=True, msg_id=4242)
    query.edns.version = version
    return query


def _on_wild(kind, wild, **kwargs):
    """A resolver-like ``kind`` wired to the wild universe."""
    return kind(
        fabric=wild.fabric, profile=CLOUDFLARE, root_hints=wild.root_hints,
        trust_anchors=wild.trust_anchors, **kwargs,
    )


def _wild_endpoint(kind):
    def build(wild):
        return next(
            endpoint
            for endpoint in wild.fabric.registered_endpoints()
            if type(endpoint) is kind
        )

    return build


#: Every well-behaved answer body, and every wrapper that reaches one.
SUBJECTS = {
    "authoritative": lambda wild: make_simple_authority(Name.from_text("example.com.")),
    "behavior-normal": lambda wild: BehaviorServer(
        make_simple_authority(Name.from_text("example.com."))
    ),
    "replica": lambda wild: ReplicaEndpoint(
        make_simple_authority(Name.from_text("example.com.")), "192.0.9.9", "near"
    ),
    "hosting": _wild_endpoint(HostingServer),
    "stale-flipping-passthrough": _wild_endpoint(StaleFlippingServer),
    "cname-loop-passthrough": _wild_endpoint(CnameLoopServer),
    "tld": _wild_endpoint(VirtualTldServer),
    "resolver": lambda wild: _on_wild(RecursiveResolver, wild),
    "frontend": lambda wild: ResilientFrontend(_on_wild(RecursiveResolver, wild)),
    "frontend-shedding": lambda wild: ResilientFrontend(
        _on_wild(RecursiveResolver, wild), FrontendConfig(max_inflight=0)
    ),
    "cluster": lambda wild: _on_wild(ResolverCluster, wild, shards=2),
    "cluster-frontends": lambda wild: _on_wild(
        ResolverCluster, wild, shards=2, frontend_config=FrontendConfig()
    ),
}


class TestBadvers:
    @pytest.fixture(scope="class")
    def wild(self, small_population):
        return WildInternet(small_population)  # own universe: counters move

    @pytest.mark.parametrize("subject", sorted(SUBJECTS))
    def test_version_one_gets_badvers_at_every_door(self, wild, subject):
        endpoint = SUBJECTS[subject](wild)
        qname = wild.population.domains[0].fqdn
        if subject == "stale-flipping-passthrough":
            # It passes each registered domain through once, then
            # REFUSES it; an unregistered name passes through every time.
            qname = "unregistered.invalid."
        query = _versioned_query(qname, version=1)
        wire = query.to_wire()
        sent_before = wild.fabric.stats.datagrams_sent

        replies = [Message.from_wire(endpoint.handle_datagram(wire, CLIENT))]
        if hasattr(endpoint, "handle_stream"):
            replies.append(Message.from_wire(endpoint.handle_stream(wire, CLIENT)))
        if hasattr(endpoint, "handle_paved"):
            paved_wire, handed_back = endpoint.handle_paved(wire, CLIENT, query)
            # Paved and byte verdicts are one verdict: the reply is
            # handed back unparsed, and parsing its wire reproduces it.
            assert handed_back is not None
            assert Message.from_wire(bytes(paved_wire)) == handed_back
            replies.append(handed_back)
        elif hasattr(endpoint, "handle_query"):  # the resolvers' Message door
            replies.append(endpoint.handle_query(query, CLIENT))

        for reply in replies:
            assert reply.rcode == Rcode.BADVERS
            assert reply.qr and reply.id == query.id
            assert reply.edns is not None and reply.edns.version == 0
            assert reply.question == query.question
            assert not reply.section_rrsets()
        assert all(reply == replies[0] for reply in replies[1:])
        assert wild.fabric.stats.datagrams_sent == sent_before

    def test_badvers_is_never_cached_and_never_served_from_a_cache(self, wild):
        """Not stored in the answer or render cache, not answered from
        either by a shedding frontend, zero upstream datagrams."""
        resolver = _on_wild(RecursiveResolver, wild, render_cache=True)
        qname = wild.population.domains[0].fqdn
        v0 = _versioned_query(qname, 0, RdataType.A).to_wire()
        v1 = _versioned_query(qname, 1, RdataType.A).to_wire()

        assert Message.from_wire(resolver.handle_datagram(v1, CLIENT)).rcode == Rcode.BADVERS
        assert len(resolver.cache) == 0 and len(resolver.render_cache) == 0
        assert wild.fabric.stats.datagrams_sent == 0

        for _ in range(2):  # resolve, then the cache hit that stores a render
            answer = Message.from_wire(resolver.handle_datagram(v0, CLIENT))
        assert answer.rcode != Rcode.BADVERS
        cached, rendered = len(resolver.cache), len(resolver.render_cache)
        assert cached > 0 and rendered == 1
        sent = wild.fabric.stats.datagrams_sent

        shedding = ResilientFrontend(resolver, FrontendConfig(max_inflight=0))
        for door in (resolver, shedding):
            reply = Message.from_wire(door.handle_datagram(v1, CLIENT))
            assert reply.rcode == Rcode.BADVERS and not reply.answer
        assert (len(resolver.cache), len(resolver.render_cache)) == (cached, rendered)
        assert wild.fabric.stats.datagrams_sent == sent
        assert shedding.stats.served_cached == 0 and shedding.stats.answered == 1
