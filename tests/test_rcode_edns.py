"""RCODE splitting/joining, EDNS option plumbing, and the door table:
what every endpoint owes a query at every door (RFC 6891, RFC 5936)."""

import struct

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
from repro.dns.ede import EdeCode
from repro.dns.exceptions import FormError, OptionError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import AAAA, TXT
from repro.dns.render import HEADER_LENGTH, skip_name
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireReader, WireWriter
from repro.net.endpoint import Endpoint
from repro.resolver.error_reporting import ReportingAgent
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import FrontendConfig, ResilientFrontend
from repro.scan.population import Profile
from repro.scan.wild import (
    CnameLoopServer,
    HostingServer,
    StaleFlippingServer,
    VirtualTldServer,
    WildInternet,
)
from repro.server.acl import Acl
from repro.server.behaviors import BehaviorServer
from repro.testbed.replicas import ReplicaEndpoint

from .authorities import make_simple_authority
from .fabric_arms import handed_back


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


# -- the door table -------------------------------------------------------------------
#
# Rows are the rules every endpoint's three doors apply
# (repro.net.endpoint), columns the endpoints; every cell runs its probe
# through the datagram, paved and stream doors and holds the paved
# verdict to the byte verdict.

CLIENT = "198.51.100.7"
EXAMPLE = Name.from_text("example.com.")
UPSTREAM = "192.0.9.150"

#: Planted under each subject's fat name: 60 AAAA records (about 1.7 kB)
#: overflow a 512-octet datagram (no ledger reply comes near one) and
#: the 1232 octets resolvers ask upstream with; 10 TXT records fit 512
#: octets but not 256.
FAT_AAAA = [AAAA(address=f"2001:db8::{i:x}") for i in range(1, 61)]
FAT_TXT = [TXT(strings=(bytes([97 + i]) * 20,)) for i in range(10)]


def _plant(zone, owner: Name) -> None:
    zone.add(RRset.of(owner, RdataType.AAAA, *FAT_AAAA, ttl=300))
    zone.add(RRset.of(owner, RdataType.TXT, *FAT_TXT, ttl=300))


def _fat_authority():
    server = make_simple_authority(EXAMPLE)
    _plant(server.zones()[0], EXAMPLE.prepend(b"fat"))
    return server


def _unsigned_domain(wild):
    return next(d for d in wild.population.domains if d.profile is Profile.VALID_UNSIGNED)


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


def _warm_shedding_frontend(wild):
    """Sheds every cache miss, so its cache holds the fat answers."""
    resolver = _on_wild(RecursiveResolver, wild)
    for rdtype in (RdataType.AAAA, RdataType.TXT):
        resolver.resolve(_fat_name(wild, "frontend-shedding"), rdtype)
    return ResilientFrontend(resolver, FrontendConfig(max_inflight=0))


def _forwarder(wild):
    wild.fabric.register(UPSTREAM, _on_wild(RecursiveResolver, wild))
    return ForwardingResolver(fabric=wild.fabric, upstreams=[UPSTREAM])


#: Every well-behaved answer body, and every wrapper that reaches one.
SUBJECTS = {
    "authoritative": lambda wild: _fat_authority(),
    "behavior-normal": lambda wild: BehaviorServer(_fat_authority()),
    "replica": lambda wild: ReplicaEndpoint(_fat_authority(), "192.0.9.9", "near"),
    "hosting": _wild_endpoint(HostingServer),
    "stale-flipping-passthrough": _wild_endpoint(StaleFlippingServer),
    "cname-loop-passthrough": _wild_endpoint(CnameLoopServer),
    "tld": _wild_endpoint(VirtualTldServer),
    "resolver": lambda wild: _on_wild(RecursiveResolver, wild),
    "frontend": lambda wild: ResilientFrontend(_on_wild(RecursiveResolver, wild)),
    "frontend-shedding": _warm_shedding_frontend,
    "cluster": lambda wild: _on_wild(ResolverCluster, wild, shards=2),
    "cluster-frontends": lambda wild: _on_wild(
        ResolverCluster, wild, shards=2, frontend_config=FrontendConfig()
    ),
    "forwarder": _forwarder,
    "reporting-agent": lambda wild: ReportingAgent("agent.example.", wild.fabric.clock),
}


def _acl_refusing():
    server = _fat_authority()
    server.acl = Acl.none()
    return server


def _bogus_name(wild) -> str:
    return next(d for d in wild.population.domains if d.profile is Profile.BOGUS).fqdn


def _unregistered(wild) -> str:
    return "unregistered.invalid."


#: How each subject comes to refuse or fail a query through no fault of
#: the query, as ``(endpoint, qname, rdtype, rcode)``: an ACL refusal, a
#: name in no zone it serves, a validation failure, a frontend shed, all
#: upstreams down.  The TLD and the agent refuse a transfer and nothing
#: else (a TLD denies a name it does not serve with NXDOMAIN).
FAILURES = {
    "authoritative": (lambda wild: _acl_refusing(), lambda wild: "fat.example.com.",
                      RdataType.A, Rcode.REFUSED),
    "behavior-normal": (lambda wild: BehaviorServer(_acl_refusing()),
                        lambda wild: "fat.example.com.", RdataType.A, Rcode.REFUSED),
    "replica": (lambda wild: ReplicaEndpoint(_acl_refusing(), "192.0.9.9", "near"),
                lambda wild: "fat.example.com.", RdataType.A, Rcode.REFUSED),
    **{
        subject: (SUBJECTS[subject], _unregistered, RdataType.A, Rcode.REFUSED)
        for subject in ("hosting", "stale-flipping-passthrough", "cname-loop-passthrough")
    },
    "tld": (SUBJECTS["tld"], lambda wild: "nowhere." + _fat_name(wild, "tld"),
            RdataType.AXFR, Rcode.REFUSED),
    "reporting-agent": (SUBJECTS["reporting-agent"], lambda wild: "agent.example.",
                        RdataType.AXFR, Rcode.REFUSED),
    **{
        subject: (SUBJECTS[subject], _bogus_name, RdataType.A, Rcode.SERVFAIL)
        for subject in ("resolver", "frontend", "cluster", "cluster-frontends")
    },
    "frontend-shedding": (SUBJECTS["frontend-shedding"], _bogus_name, RdataType.A,
                          Rcode.REFUSED),
    "forwarder": (
        lambda wild: ForwardingResolver(fabric=wild.fabric, upstreams=["192.0.9.151"]),
        _bogus_name, RdataType.A, Rcode.SERVFAIL,
    ),
}


def _fat_name(wild, subject: str) -> str:
    """Where ``subject`` finds the planted records (the agent finds none
    anywhere: it answers reports, never data)."""
    if subject in ("authoritative", "behavior-normal", "replica"):
        return "fat.example.com."
    if subject == "tld":
        return str(_wild_endpoint(VirtualTldServer)(wild).origin)
    return "fat." + _unsigned_domain(wild).fqdn


def _query(qname: str, rdtype=RdataType.AAAA, *, version=0, payload=1232, edns=True):
    query = Message.make_query(
        qname, rdtype, want_dnssec=edns, use_edns=edns, payload=payload, msg_id=4242
    )
    if edns:
        query.edns.version = version
    return query


DOORS = ("datagram", "paved", "stream")


def _doors(
    endpoint, query: Message, wire: bytes | None = None, doors=DOORS
) -> tuple[dict[str, tuple[bytes, Message]], Message | None]:
    """Each door's reply wire (to ``wire``, by default ``query``'s own)
    and its parse, and the Message the paved door handed back — which
    must be what parsing its wire gives."""
    wire = query.to_wire() if wire is None else wire
    replies, paved = {}, None
    for door in doors:
        # The stale-flipping host answers a zone once, then REFUSES it;
        # every door here asks as that zone's first query.
        getattr(endpoint, "_seen", set()).clear()
        if door == "paved":
            reply = endpoint.handle_paved(wire, CLIENT, query)
            raw, paved = bytes(reply), handed_back(reply)
            if paved is not None:
                assert Message.from_wire(raw) == paved
        else:
            raw = getattr(endpoint, f"handle_{door}")(wire, CLIENT)
        replies[door] = raw, Message.from_wire(raw)
    return replies, paved


def _verdict(reply: Message) -> tuple:
    """Everything a door decides; TTLs (a cache hit decrements them) and
    AD aside."""
    records = [
        (section, r.name, r.rdtype, sorted(rdata.to_wire() for rdata in r.rdatas))
        for section in ("answer", "authority", "additional")
        for r in getattr(reply, section)
    ]
    version = None if reply.edns is None else reply.edns.version
    return (
        reply.id, reply.qr, reply.rcode, reply.tc, reply.question, version,
        reply.ede_codes, records,
    )


def _door_made(query: Message, rcode: Rcode, replies, handed_back) -> None:
    """Rules 1-4: the door's own reply, the body never consulted.  It
    holds everything a parse would store in it — a BADVERS reply's
    extended RCODE bits included — so the paved door hands it back and
    the sender never runs the codec."""
    assert handed_back is not None and handed_back.rcode == rcode
    for _raw, reply in replies:
        assert reply.rcode == rcode
        assert reply.qr and reply.id == query.id
        assert reply.question == query.question
        assert (reply.edns is None) == (query.edns is None)
        assert reply.edns is None or reply.edns.version == 0
        assert not reply.section_rrsets()


def _fits(query: Message, replies, *, limit=512, overflows: bool) -> None:
    """Rule 5: the stream reply is whole; a datagram or paved reply is
    that reply when it fits ``limit``, else its TC=1 form — question,
    OPT iff the query had one, no records."""
    stream_wire, whole = replies["stream"]
    assert not whole.tc
    assert (len(stream_wire) > limit) == overflows
    for door in ("datagram", "paved"):
        wire, reply = replies[door]
        assert len(wire) <= limit
        if not overflows:
            assert _verdict(reply) == _verdict(whole)
            continue
        assert reply.tc and reply.qr and reply.id == query.id
        assert reply.question == query.question
        assert (reply.edns is None) == (query.edns is None)
        assert reply.rcode == whole.rcode and not reply.section_rrsets()


def _probe(probe: str, subject: str, wild, endpoint) -> None:
    fat = _fat_name(wild, subject)
    # The agent answers reports, never data: the planted answers cannot
    # reach it, so its rule-5 cells check the reply that fits.
    has_data = subject != "reporting-agent"
    if probe == "badvers":
        query = _query(wild.population.domains[0].fqdn, version=1)
        replies, handed_back = _doors(endpoint, query)
        _door_made(query, Rcode.BADVERS, replies.values(), handed_back)
    elif probe == "no-question":
        query = Message(id=7)
        replies, handed_back = _doors(endpoint, query)
        _door_made(query, Rcode.FORMERR, replies.values(), handed_back)
    elif probe == "axfr":
        query = _query(fat, RdataType.AXFR)
        replies, handed_back = _doors(endpoint, query)
        # RFC 5936 section 4.2: AXFR needs TCP; the stream door may serve it.
        _door_made(
            query, Rcode.REFUSED, [replies["datagram"], replies["paved"]], handed_back
        )
        assert replies["stream"][1].id == query.id
    elif probe == "payload-below-512":
        # RFC 6891 section 6.2.5: a payload field below 512 means 512.
        query = _query(fat, RdataType.TXT, payload=256)
        replies, _ = _doors(endpoint, query)
        assert (len(replies["stream"][0]) > 256) == has_data
        _fits(query, replies, overflows=False)
    elif probe in ("oversized", "oversized-no-edns"):
        query = _query(fat, edns=probe == "oversized", payload=512)
        replies, _ = _doors(endpoint, query)
        _fits(query, replies, overflows=has_data)
        if has_data:
            # Whole, though the answer outgrew the 1232 octets a resolver
            # or forwarder asks upstream with: they fetched it over TCP.
            (aaaa,) = replies["stream"][1].answer
            assert sorted(aaaa.rdatas, key=str) == sorted(FAT_AAAA, key=str)
    elif probe == "do-echoed":
        # RFC 3225 section 3: the DO bit is copied into the reply.
        for dnssec_ok in (False, True):
            query = _query(fat, RdataType.TXT)
            query.edns.dnssec_ok = dnssec_ok
            replies, _ = _doors(endpoint, query)
            assert {reply.edns.dnssec_ok for _raw, reply in replies.values()} == {dnssec_ok}
            assert _verdict(replies["paved"][1]) == _verdict(replies["datagram"][1])
    elif probe == "unknown-option":
        # RFC 6891 section 6.1.2: an option the responder does not know
        # is ignored, and a reply carries no option it was not built with.
        plain, _ = _doors(endpoint, _query(fat, RdataType.TXT))
        query = _query(fat, RdataType.TXT)
        query.edns.options.append(EdnsOption(code=UNKNOWN_OPTION, data=b"probe"))
        replies, _ = _doors(endpoint, query)
        for door, (_raw, reply) in replies.items():
            assert reply.edns.option(UNKNOWN_OPTION) is None
            assert _verdict(reply) == _verdict(plain[door][1])
    elif probe == "z-bits":
        # RFC 6891 section 6.1.4: Z is sent as zero and ignored on receipt.
        wire = bytearray(_query(fat, RdataType.TXT).to_wire())
        at = _opt_ttl_at(wire)
        wire[at + 2:at + 4] = b"\xff\xff"  # DO and every Z bit
        replies, _ = _doors(endpoint, Message.from_wire(bytes(wire)), bytes(wire))
        for raw, reply in replies.values():
            at = _opt_ttl_at(raw)
            assert raw[at + 2:at + 4] == b"\x80\x00"  # DO echoed, Z cleared
    elif probe in ("two-opts", "opt-owner-not-root"):
        # RFC 6891 section 6.1.1: one OPT at most, owned by the root; any
        # other query is FORMERR (rule 1).  No Message can hold it, so no
        # sender paves it: the fabric hands its bytes to the datagram door.
        wire = _broken_opt(fat, probe)
        with pytest.raises(FormError):
            Message.from_wire(wire)
        for door in ("datagram", "stream"):
            reply = Message.from_wire(getattr(endpoint, f"handle_{door}")(wire, CLIENT))
            assert (reply.rcode, reply.qr, reply.id) == (Rcode.FORMERR, True, 4242)
            # The one reply without the query's OPT: the OPT is what did
            # not parse, so the FORMERR is the header alone.
            assert reply.edns is None
        return
    datagram, paved = replies["datagram"][1], replies["paved"][1]
    assert _verdict(paved) == _verdict(datagram)


#: An option code from the RFC 6891 section 9 local/experimental range.
UNKNOWN_OPTION = 65001


def _broken_opt(qname: str, probe: str) -> bytes:
    """A query wire with two OPTs, or with its one OPT owned by ``a.``."""
    wire = bytearray(_query(qname, RdataType.TXT).to_wire())
    opt = bytes(wire[-11:])  # root owner, TYPE, CLASS, TTL, RDLENGTH 0
    if probe == "two-opts":
        wire += opt
        wire[10:12] = b"\x00\x02"  # ARCOUNT
    else:
        wire[-11:] = b"\x01a" + opt
    return bytes(wire)


def _opt_ttl_at(wire) -> int:
    """Offset of the OPT record's TTL field: extended RCODE, version, DO
    and the Z bits."""
    qdcount, *records = struct.unpack_from(">HHHH", wire, 4)
    pos = HEADER_LENGTH
    for _ in range(qdcount):
        pos = skip_name(wire, pos) + 4
    for _ in range(sum(records)):
        pos = skip_name(wire, pos)
        rdtype, _rdclass, _ttl, rdlength = struct.unpack_from(">HHIH", wire, pos)
        if rdtype == RdataType.OPT:
            return pos + 4
        pos += 10 + rdlength
    raise AssertionError("no OPT record")


PROBES = (
    "no-question", "axfr", "payload-below-512", "oversized", "oversized-no-edns",
    "do-echoed", "unknown-option", "z-bits", "two-opts", "opt-owner-not-root",
)
#: Rules 1-4 are the door's own replies: no cell of theirs may send.
SILENT_PROBES = ("badvers", "no-question", "axfr", "two-opts", "opt-owner-not-root")


class TestBadvers:
    """The door table.  Its first row, RFC 6891 section 6.1.3 version
    negotiation, is where it began; the rows after it are the other
    rules of :mod:`repro.net.endpoint`."""

    @pytest.fixture(scope="class")
    def wild(self, small_population):
        wild = WildInternet(small_population)  # own universe: counters move, records planted
        _plant(wild.zone_for(_unsigned_domain(wild)), Name.from_text(_fat_name(wild, "hosting")))
        tld = _wild_endpoint(VirtualTldServer)(wild)
        _plant(tld.apex_zone, tld.origin)
        return wild

    def _cell(self, wild, probe: str, subject: str) -> None:
        endpoint = SUBJECTS[subject](wild)
        sent_before = wild.fabric.stats.datagrams_sent
        _probe(probe, subject, wild, endpoint)
        if probe in SILENT_PROBES:
            assert wild.fabric.stats.datagrams_sent == sent_before

    @pytest.mark.parametrize("subject", sorted(SUBJECTS))
    def test_version_one_gets_badvers_at_every_door(self, wild, subject):
        self._cell(wild, "badvers", subject)

    @pytest.mark.parametrize("subject", sorted(SUBJECTS))
    @pytest.mark.parametrize("probe", PROBES)
    def test_door_table(self, wild, probe, subject):
        self._cell(wild, probe, subject)

    @pytest.mark.parametrize("subject", sorted(SUBJECTS))
    def test_refused_and_servfail_carry_opt_iff_the_query_did(self, wild, subject):
        """RFC 6891 section 7: a responder that understands EDNS puts an
        OPT in its reply to an OPT-bearing query, refusals and failures
        included, and never one in a reply to a query without."""
        build, qname, rdtype, rcode = FAILURES[subject]
        for edns in (True, False):
            query = _query(qname(wild), rdtype, edns=edns)
            # A door each, on a fresh endpoint: a resolver asked twice
            # answers the second time from its error cache (EDE 13).
            replies = {door: _doors(build(wild), query, doors=(door,))[0][door] for door in DOORS}
            for _raw, reply in replies.values():
                assert (reply.rcode, reply.id) == (rcode, query.id)
                assert (reply.edns is None) == (query.edns is None)
            assert _verdict(replies["paved"][1]) == _verdict(replies["datagram"][1])

    def test_badvers_is_never_cached_and_never_served_from_a_cache(self, wild):
        """Not stored in the answer or render cache, not answered from
        either by a shedding frontend, zero upstream datagrams."""
        resolver = _on_wild(RecursiveResolver, wild)
        qname = wild.population.domains[0].fqdn
        v0 = _query(qname, RdataType.A).to_wire()
        v1 = _query(qname, RdataType.A, version=1).to_wire()
        sent = wild.fabric.stats.datagrams_sent

        assert Message.from_wire(resolver.handle_datagram(v1, CLIENT)).rcode == Rcode.BADVERS
        assert len(resolver.cache) == 0 and len(resolver.render_cache) == 0
        assert wild.fabric.stats.datagrams_sent == sent

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


class _Verbose(Endpoint):
    """An upstream whose every answer is SERVFAIL with one Network Error
    carrying 600 octets of EXTRA-TEXT."""

    recursion_available = True

    def handle_query(self, query, source):
        reply = query.make_response()
        reply.rcode = Rcode.SERVFAIL
        reply.add_ede(EdeCode.NETWORK_ERROR, "v" * 600)
        return reply


def test_annotated_relay_fits_512_at_every_door(fabric):
    """Rule 5 with the forwarder's ``[from ...]`` prefix on a long
    EXTRA-TEXT: the TC=1 form keeps the OPT and the code, drops the text
    (RFC 8914 section 3), and fits; the stream reply relays it whole."""
    fabric.register(UPSTREAM, _Verbose())
    forwarder = ForwardingResolver(fabric=fabric, upstreams=[UPSTREAM], annotate_forwarded=True)
    query = _query("verbose.test.", RdataType.A, payload=512)
    replies, _ = _doors(forwarder, query)
    _fits(query, replies, overflows=True)
    (whole,) = replies["stream"][1].extended_errors
    assert whole.extra_text == f"[from {UPSTREAM}] " + "v" * 600
    for door in ("datagram", "paved"):
        assert [(e.info_code, e.extra_text) for e in replies[door][1].extended_errors] == [
            (EdeCode.NETWORK_ERROR, "")
        ]
