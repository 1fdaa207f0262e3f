"""Robustness fuzzing: hostile inputs must raise DnsError, never crash."""

import importlib
import pkgutil
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dns.exceptions import DnsError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, CNAME, Rdata
from repro.dns.render import (
    HEADER_LENGTH,
    RenderRefused,
    response_ttl_offsets,
    wire_key,
)
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireReader
import repro
from repro.cluster import ConsistentHashRing, ResolverCluster
from repro.net.clock import SimulatedClock
from repro.net.endpoint import Endpoint
from repro.resolver.cache import RenderedWireCache
from repro.resolver.error_reporting import (
    ReportChannelOption,
    ReportingAgent,
    decode_report_qname,
)
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import ResilientFrontend
from repro.scan.extratext import parse_network_error
from repro.scan.wild import WildInternet
from repro.server.behaviors import Behavior
from repro.testbed.infra import build_testbed
from repro.testbed.replicas import ReplicaTopology
from repro.testbed.subdomains import ALL_CASES

from .authorities import make_simple_authority
from .fabric_arms import handed_back


@given(st.binary(max_size=512))
def test_message_parser_never_crashes(data):
    try:
        Message.from_wire(data)
    except DnsError:
        pass  # rejecting hostile input is the job


@given(st.binary(max_size=128))
def test_name_reader_never_crashes(data):
    try:
        WireReader(data).read_name()
    except DnsError:
        pass


@given(
    st.sampled_from(
        [RdataType.A, RdataType.AAAA, RdataType.SOA, RdataType.MX,
         RdataType.TXT, RdataType.DNSKEY, RdataType.DS, RdataType.RRSIG,
         RdataType.NSEC3, RdataType.NSEC3PARAM]
    ),
    st.binary(max_size=96),
)
def test_rdata_parsers_never_crash(rdtype, data):
    try:
        Rdata.from_wire(rdtype, data)
    except DnsError:
        pass


@given(st.binary(max_size=300))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=60)
def test_authoritative_server_survives_garbage(data):
    server = make_simple_authority(Name.from_text("fuzz.test."))
    raw = server.handle_datagram(data, "198.51.100.1")
    if raw is not None:
        Message.from_wire(raw)  # whatever comes back must itself parse


@given(st.binary(max_size=64))
def test_report_channel_option_never_crashes(data):
    try:
        ReportChannelOption.from_wire_data(data)
    except DnsError:
        pass


@given(st.text(max_size=120))
def test_extratext_parser_never_crashes(text):
    parse_network_error(text)


@given(st.lists(st.binary(min_size=1, max_size=10), min_size=1, max_size=6))
def test_report_qname_decoder_never_crashes(labels):
    agent = Name.from_text("agent.test.")
    name = Name(tuple(labels) + agent.labels)
    decode_report_qname(name, agent)


def _read_name_outcome(data, offset, *, name_cache, prewalk=()):
    """Decode one name; return ("ok", name, end_pos) or ("err", exc_type)."""
    reader = WireReader(data, name_cache=name_cache)
    try:
        for pre in prewalk:  # warm the compression cache on valid names
            reader.seek(pre)
            reader.read_name()
        reader.seek(offset)
        name = reader.read_name()
        return ("ok", name, reader.pos)
    except DnsError as exc:
        return ("err", type(exc))


def _assert_paths_agree(data, offset, prewalk=()):
    fast = _read_name_outcome(data, offset, name_cache=True, prewalk=prewalk)
    slow = _read_name_outcome(data, offset, name_cache=False, prewalk=prewalk)
    assert fast == slow, f"fast/slow divergence at offset {offset}: {fast} != {slow}"
    return fast


def _wire_with_opt(option_code=15, claimed_len=4, actual=b"\x00\x16\x00\x00"):
    """Header + one OPT RR whose single option claims ``claimed_len`` bytes."""
    rdata = option_code.to_bytes(2, "big") + claimed_len.to_bytes(2, "big") + actual
    opt = b"\x00" + (41).to_bytes(2, "big") + (4096).to_bytes(2, "big")
    opt += (0).to_bytes(4, "big") + len(rdata).to_bytes(2, "big") + rdata
    header = (0).to_bytes(2, "big") + b"\x80\x00" + b"\x00\x00" * 3 + b"\x00\x01"
    return header + opt


class TestWireFastPathDifferential:
    """The compression-cache fast path and the plain label walk must
    accept, reject, and decode exactly the same inputs (ISSUE 3)."""

    # (buffer, offset to read at, offsets of valid names to pre-walk)
    CORPUS = [
        # Self-pointer: target == pos, forward/self pointers are banned.
        (b"\xc0\x00", 0, ()),
        # Two-hop loop: label then a pointer back into the chain.
        (b"\x03abc\xc0\x00\xc0\x04", 6, ()),
        # Forward pointer (decompression may only look backwards).
        (b"\xc0\x05\x00\x00\x00\x01a\x00", 0, ()),
        # Pointer byte truncated mid-pair.
        (b"\x00\xc0", 1, ()),
        # Label length runs past the end of the buffer.
        (b"\x05ab", 0, ()),
        # Pointer to a mid-label offset: decodes garbage, but the same
        # garbage either way (the cache only indexes label starts).
        (b"\x07example\x00\xc0\x03", 9, (0,)),
        # Valid compression against a warmed cache (the fast-path hit).
        (b"\x03www\x07example\x03com\x00\x04mail\xc0\x04", 17, (0,)),
        # Chained pointers through cached suffixes.
        (b"\x03com\x00\x07example\xc0\x00\x03www\xc0\x05", 15, (0, 5)),
        # Pointer into the OPT RR region of a real message: the target
        # bytes are option data, not labels, and must parse (or fail)
        # identically with and without the cache.
        (_wire_with_opt() + b"\xc0\x17", len(_wire_with_opt()), ()),
        (_wire_with_opt() + b"\xc0\x0c", len(_wire_with_opt()), ()),
    ]

    @pytest.mark.parametrize("data,offset,prewalk", CORPUS)
    def test_seeded_corpus(self, data, offset, prewalk):
        _assert_paths_agree(data, offset, prewalk)

    def test_cache_hit_decodes_identically(self):
        wire = b"\x03www\x07example\x03com\x00\x04mail\xc0\x04"
        fast = _read_name_outcome(wire, 17, name_cache=True, prewalk=(0,))
        slow = _read_name_outcome(wire, 17, name_cache=False, prewalk=(0,))
        assert fast[0] == "ok"
        assert fast == slow
        assert str(fast[1]) == "mail.example.com."

    def test_overlong_name_rejected_by_both(self):
        # 4 * 63-byte labels = 256 encoded octets > 255, assembled via a
        # pointer so the fast path's cached-suffix accounting is on the line.
        base = b"".join(b"\x3f" + bytes([65 + i]) * 63 for i in range(3)) + b"\x00"
        wire = base + b"\x3f" + b"Z" * 63 + b"\xc0\x00"
        fast = _read_name_outcome(wire, len(base), name_cache=True, prewalk=(0,))
        slow = _read_name_outcome(wire, len(base), name_cache=False, prewalk=(0,))
        assert fast == slow
        assert fast[0] == "err"

    @given(st.binary(max_size=128), st.integers(min_value=0, max_value=127))
    def test_random_buffers_agree(self, data, offset):
        _assert_paths_agree(data, offset)

    @given(st.binary(max_size=160))
    def test_random_buffers_agree_with_warm_cache(self, data):
        # Pre-walk offset 0 only when it decodes cleanly, then compare
        # a second read that may hit the cache the pre-walk populated.
        try:
            WireReader(data).read_name()
        except DnsError:
            prewalk = ()
        else:
            prewalk = (0,)
        _assert_paths_agree(data, min(2, len(data)), prewalk)


class TestTruncatedEdeOptions:
    """EDE options whose length field lies about the payload size."""

    @pytest.mark.parametrize(
        "claimed,actual",
        [(4, b"\x00\x16"), (64, b"\x00\x16\x00\x00"), (2, b""), (65535, b"\x00")],
    )
    def test_truncated_option_rejected_or_parsed_consistently(self, claimed, actual):
        wire = _wire_with_opt(claimed_len=claimed, actual=actual)
        outcomes = []
        for view in (wire, memoryview(wire)):
            try:
                outcomes.append(("ok", Message.from_wire(view).to_wire()))
            except DnsError as exc:
                outcomes.append(("err", type(exc)))
        assert outcomes[0] == outcomes[1]

    def test_exact_length_ede_still_parses(self):
        wire = _wire_with_opt(claimed_len=4, actual=b"\x00\x16\x00\x00")
        message = Message.from_wire(wire)
        assert 22 in [ede.info_code for ede in message.extended_errors]


class TestMemoryviewBoundary:
    """Parsing from a memoryview slice of a larger buffer must match
    parsing the standalone bytes — names, rdata, and EDE options all
    cross the zero-copy boundary."""

    def _sample_wire(self):
        message = Message.make_query("www.example.com.", RdataType.A, msg_id=99)
        message.qr = True
        message.add_ede(22, "no reachable authority")
        message.add_ede(23)
        return message.to_wire()

    def test_slice_of_padded_buffer(self):
        wire = self._sample_wire()
        padded = b"\xff" * 7 + wire + b"\xee" * 9
        view = memoryview(padded)[7 : 7 + len(wire)]
        assert Message.from_wire(view).to_wire() == Message.from_wire(wire).to_wire()

    def test_bytearray_and_memoryview_equal_bytes(self):
        wire = self._sample_wire()
        for view in (bytearray(wire), memoryview(wire)):
            parsed = Message.from_wire(view)
            assert parsed.to_wire() == Message.from_wire(wire).to_wire()
            assert [e.info_code for e in parsed.extended_errors] == [22, 23]

    @given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16))
    def test_any_padding_alignment(self, left, right):
        wire = self._sample_wire()
        view = memoryview(b"\x00" * left + wire + b"\x00" * right)[
            left : left + len(wire)
        ]
        assert Message.from_wire(view).to_wire() == wire


def _compressed_response(msg_id: int = 800) -> tuple[Message, Message]:
    """A response whose wire is dense with compression pointers: four
    records sharing name suffixes, a CNAME whose target compresses into
    the question, plus the OPT pseudo-record."""
    query = Message.make_query("www.pointer.test.", RdataType.A, msg_id=msg_id)
    response = query.make_response()
    www = Name.from_text("www.pointer.test.")
    apex = Name.from_text("pointer.test.")
    response.answer.append(
        RRset.of(www, RdataType.CNAME, CNAME(target=apex), ttl=120)
    )
    response.answer.append(
        RRset.of(apex, RdataType.A, A(address="192.0.2.80"), ttl=240)
    )
    response.authority.append(
        RRset.of(
            Name.from_text("deep.sub.pointer.test."),
            RdataType.A,
            A(address="192.0.2.81"),
            ttl=360,
        )
    )
    response.add_ede(22, "offsets under pressure")
    return query, response


class TestRenderOffsetRobustness:
    """The wire cache's offset walker feeds in-place byte patching, so a
    wrong offset is silent corruption.  These pin the ID-rewrite and
    TTL-patch offsets under compression pointers and OPT-bearing
    responses, and that anything unmappable is refused, never mis-cached
    (the parse-or-refuse contract)."""

    def test_compressed_wire_offsets_hit_every_ttl_and_nothing_else(self):
        _query, response = _compressed_response()
        wire = response.to_wire()
        assert b"\xc0" in wire  # compression pointers really present
        offsets = response_ttl_offsets(wire)
        assert len(offsets) == 3  # 2 answers + 1 authority, OPT excluded
        patched = bytearray(wire)
        for offset in offsets:
            struct.pack_into(">I", patched, offset, 7)
        reparsed = Message.from_wire(bytes(patched))
        original = Message.from_wire(wire)
        assert all(r.ttl == 7 for r in reparsed.answer + reparsed.authority)
        assert [r.name for r in reparsed.section_rrsets()] == [
            r.name for r in original.section_rrsets()
        ]
        # The OPT survived untouched: EDE and extended-RCODE bits intact.
        assert [e.info_code for e in reparsed.extended_errors] == [22]
        assert reparsed.rcode == original.rcode

    def test_served_hit_patches_only_id_and_ttls(self):
        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        query, response = _compressed_response()
        wire = response.to_wire()
        key = wire_key(query.to_wire())
        expiry = clock.now() + 120.5
        assert cache.store(key, wire, expires_at=expiry, decrement_answers_until=expiry)
        clock.advance(30.0)
        hit_query = Message.make_query(
            "www.pointer.test.", RdataType.A, msg_id=0xBEEF
        )
        served, _note = cache.serve(key, hit_query.to_wire())
        expected_ttl = max(1, int(expiry - clock.now()))
        ancount = struct.unpack_from(">H", wire, 6)[0]
        patched_at = {0, 1}
        for offset in response_ttl_offsets(wire)[:ancount]:
            patched_at.update(range(offset, offset + 4))
            assert struct.unpack_from(">I", served, offset)[0] == expected_ttl
        assert served[0:2] == (0xBEEF).to_bytes(2, "big")
        for index, byte in enumerate(served):
            if index not in patched_at:
                assert byte == wire[index], f"corrupted byte at offset {index}"

    @given(st.binary(max_size=320))
    def test_offset_walker_never_crashes_and_stays_in_bounds(self, data):
        try:
            offsets = response_ttl_offsets(data)
        except RenderRefused:
            return
        for offset in offsets:
            assert HEADER_LENGTH <= offset
            assert offset + 4 <= len(data)
        assert wire_key(data) is None or len(data) > HEADER_LENGTH

    @given(
        flips=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=200),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_mutated_wires_parse_or_refuse_never_corrupt(self, flips):
        """Mutate a real response wire, then try to cache it: either the
        walker refuses (store returns False, nothing cached) or the
        served hit differs from the stored bytes *only* at the message
        ID and the walker's own TTL offsets."""
        _query, response = _compressed_response()
        mutated = bytearray(response.to_wire())
        for index, value in flips:
            if index < len(mutated):
                mutated[index] = value
        mutated = bytes(mutated)

        clock = SimulatedClock()
        cache = RenderedWireCache(clock=clock)
        expiry = clock.now() + 90.25
        stored = cache.store(
            b"fuzz-key", mutated, expires_at=expiry, decrement_answers_until=expiry
        )
        if not stored:
            assert cache.stats.refusals == 1
            assert len(cache) == 0
            return
        clock.advance(1.5)
        probe = Message.make_query("probe.test.", RdataType.A, msg_id=0x1234)
        served, _note = cache.serve(b"fuzz-key", probe.to_wire())
        ancount = struct.unpack_from(">H", mutated, 6)[0]
        allowed = {0, 1}
        for offset in response_ttl_offsets(mutated)[:ancount]:
            allowed.update(range(offset, offset + 4))
        diff = [i for i in range(len(served)) if served[i] != mutated[i]]
        assert all(index in allowed for index in diff)


class TestMessageRoundTripInvariant:
    """Any message our encoder produces, our parser accepts — and the
    second round trip is byte-identical (a fixed point)."""

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.sampled_from([RdataType.A, RdataType.AAAA, RdataType.TXT]),
        st.lists(st.integers(min_value=0, max_value=30), max_size=4),
    )
    def test_fixed_point(self, msg_id, rdtype, ede_codes):
        message = Message.make_query("fixed.point.test.", rdtype, msg_id=msg_id)
        message.qr = True
        for code in ede_codes:
            message.add_ede(code)
        once = Message.from_wire(message.to_wire()).to_wire()
        twice = Message.from_wire(once).to_wire()
        assert once == twice


# -- parse-or-refuse, every endpoint --------------------------------------------------


def _wild_world(small_population):
    wild = WildInternet(small_population)  # own universe: the sweep builds zones
    return wild.fabric, small_population.domains[0].fqdn


def _flat_world(_population):
    testbed = build_testbed()
    return testbed.fabric, str(testbed.cases["valid"].query_name)


def _replicated_world(_population):
    testbed = build_testbed(cases=ALL_CASES[:8], topology=ReplicaTopology())
    return testbed.fabric, str(testbed.cases["valid"].query_name)


def _resolver_world(_population):
    """Every resolver-side endpoint, registered beside the authorities
    of a small testbed it resolves through."""
    testbed = build_testbed(cases=ALL_CASES[:8])
    fabric = testbed.fabric

    def resolver(kind=RecursiveResolver, **kwargs):
        return kind(
            fabric=fabric, profile=CLOUDFLARE, root_hints=testbed.root_hints,
            trust_anchors=testbed.trust_anchors, **kwargs,
        )

    for address, endpoint in (
        ("192.0.9.150", resolver()),
        ("192.0.9.151", ResilientFrontend(resolver())),
        ("192.0.9.152", ForwardingResolver(fabric, upstreams=["192.0.9.150"])),
        ("192.0.9.153", ReportingAgent("agent.fuzz.test.", fabric.clock)),
        ("192.0.9.154", resolver(ResolverCluster, shards=2)),
    ):
        fabric.register(address, endpoint)
    return fabric, str(testbed.cases["valid"].query_name)


def _hostile_wires(qname: str) -> list[bytes]:
    query = Message.make_query(qname, RdataType.A, want_dnssec=True, msg_id=77)
    valid = query.to_wire()
    rng = random.Random(18)
    mutated = []
    for _ in range(30):
        wire = bytearray(valid)
        for _ in range(3):
            wire[rng.randrange(len(wire))] = rng.randrange(256)
        mutated.append(bytes(wire))
    return [
        Message(id=7).to_wire(),  # header only: QDCOUNT 0
        b"\x07",
        bytes([0xAB] * 16),
        valid[:-3],
        query.make_response().to_wire(),  # a response sent as a query
        Message.make_query(".", RdataType.NS, msg_id=78).to_wire(),
        Message.make_query(".", RdataType.AXFR, msg_id=79).to_wire(),
        *mutated,
    ]


WORLDS = (_wild_world, _flat_world, _replicated_world, _resolver_world)


@pytest.fixture(scope="module")
def worlds(small_population):
    """Each world, built once for every row below: ``world -> (fabric,
    the qname of a valid query)``."""
    return {world: world(small_population) for world in WORLDS}


@pytest.mark.parametrize("world", WORLDS)
def test_every_registered_endpoint_parses_or_refuses(world, worlds):
    """The never-raise contract, at every door of every world: whatever
    arrives, by datagram, paved send or stream, an endpoint answers with
    bytes that parse or stays silent — it does not raise into
    ``fabric.send`` — and a reply to anything with a whole header
    carries that header's ID with QR set."""
    fabric, qname = worlds[world]
    wires = _hostile_wires(qname)
    calls = 0
    for endpoint in fabric.registered_endpoints():
        for wire in wires:
            replies = [
                endpoint.handle_datagram(wire, "198.51.100.7"),
                endpoint.handle_stream(wire, "198.51.100.7"),
            ]
            try:
                query = Message.from_wire(wire)
            except DnsError:
                pass
            else:
                paved = endpoint.handle_paved(wire, "198.51.100.7", query)
                replies.append(None if paved is None else bytes(paved))
                parsed = handed_back(paved)
                if parsed is not None:
                    assert Message.from_wire(replies[-1]) == parsed
            for reply in replies:
                calls += 1
                if reply is None:
                    continue
                parsed = Message.from_wire(reply)
                if len(wire) >= HEADER_LENGTH:
                    assert parsed.id == int.from_bytes(wire[:2], "big") and parsed.qr
    assert calls >= 2 * len(wires) * len(fabric.registered_endpoints())


# -- never-raise, every door: a body that raises gets a SERVFAIL ----------------------

CLIENT = "198.51.100.7"
DOORS = ("datagram", "paved", "stream")


def _broken(*_args):
    raise RuntimeError("a broken body")


def _knock(endpoint: Endpoint, door: str, query: Message):
    wire = query.to_wire()
    if door == "paved":
        return endpoint.handle_paved(wire, CLIENT, query)
    return getattr(endpoint, f"handle_{door}")(wire, CLIENT)


def _door_owners(endpoint: Endpoint) -> list[Endpoint]:
    """The endpoints whose own door rules answer for ``endpoint``: a
    cluster routes each query to the same door of a shard, or of the
    shard's frontend."""
    if isinstance(endpoint, ResolverCluster):
        return endpoint.frontends or endpoint.shards
    return [endpoint]


@pytest.mark.parametrize("world", WORLDS)
def test_every_door_turns_a_raising_body_into_servfail(world, worlds, monkeypatch):
    """Rule 6 at every door of every registered endpoint: when rule 0,
    the answer body or the transfer body raises, the door answers a
    SERVFAIL echoing the query's ID with QR set and calls
    ``on_door_reply`` exactly once, with SERVFAIL.  A TIMEOUT server
    stays silent and calls nothing."""
    fabric, qname = worlds[world]
    query = Message.make_query(qname, RdataType.A, want_dnssec=True, msg_id=0x5151)
    axfr = Message.make_query(qname, RdataType.AXFR, msg_id=0x5152)
    legs = (
        ("handle_query", DOORS, query),
        ("handle_axfr", ("stream",), axfr),
        ("stored_reply", ("datagram",), query),
    )
    knocks = 0
    for endpoint in fabric.registered_endpoints():
        silent = getattr(endpoint, "behavior", None) is Behavior.TIMEOUT
        for method, doors, asked in legs:
            with monkeypatch.context() as patch:
                seen: list[int] = []
                for owner in _door_owners(endpoint):
                    patch.setattr(owner, method, _broken)
                    counted = owner.on_door_reply
                    patch.setattr(
                        owner, "on_door_reply",
                        lambda rcode, counted=counted: (seen.append(rcode), counted(rcode)),
                    )
                for door in doors:
                    seen.clear()
                    reply = _knock(endpoint, door, asked)
                    knocks += 1
                    if silent:
                        assert reply is None and seen == []
                        continue
                    parsed = Message.from_wire(bytes(reply))
                    assert (parsed.id, parsed.qr, parsed.rcode) == (
                        asked.id, True, Rcode.SERVFAIL
                    ), (type(endpoint).__name__, method, door)
                    assert seen == [Rcode.SERVFAIL], (type(endpoint).__name__, method, door)
    assert knocks == 5 * len(fabric.registered_endpoints())


def test_a_cluster_whose_routing_raises_drops_the_query(worlds, monkeypatch):
    """``ResolverCluster._route`` never raises: when the ring itself
    raises, each of the cluster's three doors drops the query (None)."""
    fabric, qname = worlds[_resolver_world]
    [cluster] = [
        endpoint for endpoint in fabric.registered_endpoints()
        if isinstance(endpoint, ResolverCluster)
    ]
    monkeypatch.setattr(ConsistentHashRing, "shard_for", _broken)
    query = Message.make_query(qname, RdataType.A, msg_id=0x5153)
    for door in DOORS:
        assert _knock(cluster, door, query) is None


def test_every_endpoint_class_sits_in_a_world(worlds):
    """The rows above cover every concrete :class:`Endpoint` subclass in
    ``repro``: each is registered in some world, or is a shard or a
    frontend of a registered cluster.  A new endpoint class must join a
    world before its doors go unchecked."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)

    def subclasses(kind):
        for sub in kind.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {
        kind for kind in subclasses(Endpoint) if kind.__module__.startswith("repro.")
    }
    registered = set()
    for fabric, _qname in worlds.values():
        for endpoint in fabric.registered_endpoints():
            registered.add(type(endpoint))
            if isinstance(endpoint, ResolverCluster):
                registered.update(map(type, endpoint.shards + (endpoint.frontends or [])))
    assert len(defined) >= 12
    assert defined <= registered, sorted(kind.__name__ for kind in defined - registered)
