"""The sizing pass behind :class:`repro.dns.render.LazyWire`.

``wire_length(m)`` must be *exactly* ``len(m.to_wire())`` or refuse:
the fabric counts it into ``fabric.stats`` and the authoritative
servers take the RFC 6891 truncation decision on it, and on the paved
path nothing ever renders the bytes to notice a wrong answer.  The
property below states that against the encoder for generated messages;
the world tests state it for every datagram of a 1 000-domain scan and
of the 63×7 matrix, and that a scan on the shipped fabric renders
nothing at all while counting the same bytes as the byte path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dns.dnssec_records import DNSKEY, DS, NSEC, NSEC3, RRSIG
from repro.dns.ede import ExtendedError
from repro.dns.edns import Edns, EdnsOption
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import A, AAAA, CNAME, MX, NS, SOA, SRV, TXT, GenericRdata, Rdata
from repro.dns.render import LazyWire, wire_length
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dns.wire import WireWriter
from repro.net.fabric import NetworkFabric
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import WildInternet
from repro.testbed.runner import run_matrix

from .fabric_arms import PlainFabric

# ---------------------------------------------------------------------------
# generated messages
# ---------------------------------------------------------------------------

#: Few labels, in both cases: generated names share suffixes (so owner
#: names compress against questions, other owners *and* names inside
#: rdata) about as often as they do not.
LABELS = st.sampled_from(
    [b"a", b"A", b"b", b"www", b"WwW", b"ns1", b"example", b"EXAMPLE",
     b"com", b"Com", b"net", b"x" * 63]
)
#: Four 63-octet labels would encode to 257 octets, past RFC 1035's 255:
#: not a name, so not drawn.
NAMES = (
    st.lists(LABELS, min_size=0, max_size=4)
    .filter(lambda ls: sum(len(label) + 1 for label in ls) < 255)
    .map(lambda ls: Name((*ls, b"")))
)
BLOBS = st.binary(min_size=0, max_size=40)
U16 = st.integers(min_value=0, max_value=0xFFFF)
U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

RDATAS = st.one_of(
    st.builds(A, address=st.ip_addresses(v=4).map(str)),
    st.builds(AAAA, address=st.ip_addresses(v=6).map(str)),
    st.builds(NS, target=NAMES),
    st.builds(CNAME, target=NAMES),
    st.builds(MX, preference=U16, exchange=NAMES),
    st.builds(SOA, mname=NAMES, rname=NAMES, serial=U32),
    st.builds(SRV, priority=U16, weight=U16, port=U16, target=NAMES),
    st.builds(TXT, strings=st.lists(BLOBS, min_size=1, max_size=3).map(tuple)),
    st.builds(DS, key_tag=U16, algorithm=st.just(13), digest_type=st.just(2), digest=BLOBS),
    st.builds(DNSKEY, flags=st.sampled_from([256, 257]), algorithm=st.just(13), key=BLOBS),
    st.builds(
        RRSIG, type_covered=st.sampled_from([RdataType.A, RdataType.DS]),
        algorithm=st.just(13), labels=st.integers(0, 5), original_ttl=U32,
        expiration=U32, inception=U32, key_tag=U16, signer=NAMES, signature=BLOBS,
    ),
    st.builds(NSEC, next_name=NAMES, types=st.just((1, 2, 46))),
    st.builds(
        NSEC3, iterations=st.integers(0, 10), salt=st.binary(max_size=8),
        next_hash=st.binary(min_size=20, max_size=20), types=st.just((1, 46)),
    ),
    st.builds(GenericRdata, rdtype_value=st.just(RdataType.NONE), data=BLOBS),
)


@st.composite
def rrsets(draw) -> RRset:
    rdatas = draw(st.lists(RDATAS, min_size=1, max_size=3))
    # The RRset's declared type does not have to match its rdatas for
    # the encoder (or the sizer) to do its job; mixing them gives
    # name-bearing and name-free rdata under one owner.
    return RRset(
        name=draw(NAMES), rdtype=RdataType.A, ttl=draw(st.integers(0, 86400)),
        rdatas=rdatas,
    )


OPTIONS = st.one_of(
    st.builds(EdnsOption, code=st.integers(16, 100), data=BLOBS),
    st.builds(ExtendedError.make, st.integers(0, 30), st.text(max_size=20)),
)
SECTIONS = st.lists(rrsets(), min_size=0, max_size=4)


def bulk_rrset() -> RRset:
    """17 KiB of TXT: every name first written after it starts past the
    0x3FFF pointer limit and can never become a compression target."""
    return RRset(
        name=Name.from_text("bulk.example.com."), rdtype=RdataType.TXT,
        rdatas=[TXT(strings=(bytes([index]) * 255,)) for index in range(68)],
    )


@st.composite
def messages(draw) -> Message:
    message = Message(
        id=draw(U16), qr=draw(st.booleans()), aa=draw(st.booleans()),
        cd=draw(st.booleans()), rcode=draw(st.sampled_from([0, 2, 3, 5, 16, 23])),
        question=[
            Question(name, RdataType.A)
            for name in draw(st.lists(NAMES, min_size=0, max_size=2))
        ],
        answer=draw(SECTIONS), authority=draw(SECTIONS), additional=draw(SECTIONS),
    )
    if draw(st.booleans()):
        message.edns = Edns(
            payload=draw(st.sampled_from([512, 1232, 4096])),
            dnssec_ok=draw(st.booleans()),
            options=draw(st.lists(OPTIONS, max_size=3)),
        )
    if draw(st.booleans()):
        draw(st.sampled_from([message.answer, message.authority])).insert(
            draw(st.integers(0, 1)), bulk_rrset()
        )
    return message


@given(messages())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wire_length_is_the_length_of_the_wire(message):
    wire = message.to_wire()
    assert wire_length(message) == len(wire)
    assert wire_length(message) == len(wire)  # with every rdata shape now memoised
    lazy = LazyWire(message)
    assert len(lazy) == len(wire) and bytes(lazy) == wire
    if len(wire) > 512:
        assert wire_length(message.truncated()) == len(message.to_wire(max_size=512))


def test_names_past_the_pointer_limit_are_never_targets():
    """The directed form of the bulk case: the same owner twice, both
    past 0x3FFF, is written in full twice."""
    late = Name.from_text("late.example.org.")
    message = Message(question=[Question(Name.from_text("q.test."), RdataType.A)])
    message.answer = [
        bulk_rrset(),
        RRset.of(late, RdataType.A, A(address="192.0.2.1"), A(address="192.0.2.2")),
    ]
    assert wire_length(message) == len(message.to_wire())
    early = Message(question=message.question, answer=message.answer[1:])
    assert wire_length(message) - wire_length(early) > len(bulk_rrset().rdatas) * 256
    # 2 octets saved by a pointer to "late.example.org." vs 18 in full.
    assert wire_length(early) == len(early.to_wire()) == 12 + 12 + 2 * (18 + 14) - 16


def test_rdata_names_register_compression_targets():
    """An NS target is written uncompressed but is what the glue owner
    after it points at; the sizer learned that from ``NS.write``."""
    zone = Name.from_text("example.com.")
    ns = Name.from_text("ns1.hosting.net.")
    message = Message(question=[Question(zone, RdataType.A)])
    message.authority = [RRset.of(zone, RdataType.NS, NS(target=ns))]
    message.additional = [RRset.of(ns, RdataType.A, A(address="192.0.2.53"))]
    assert NS(target=ns).wire_shape() == (17, 0, ns)
    assert A(address="192.0.2.53").wire_shape() == 4
    assert wire_length(message) == len(message.to_wire())
    # question 13+4, NS RR 2+10+17, glue RR 2+10+4: both owners are pointers.
    assert wire_length(message) == 12 + 17 + 29 + 16


# ---------------------------------------------------------------------------
# one row per fast path of the sizing pass
# ---------------------------------------------------------------------------


class TestFastPaths:
    def test_a_question_only_message_with_and_without_opt(self):
        qname = Name.from_text("WWW.example.com.")
        bare = Message.make_query(qname, RdataType.A, use_edns=False, msg_id=1)
        with_opt = Message.make_query(qname, RdataType.A, want_dnssec=True, msg_id=1)
        assert wire_length(bare) == len(bare.to_wire()) == 12 + 17 + 4
        assert wire_length(with_opt) == len(with_opt.to_wire()) == 12 + 17 + 4 + 11
        root = Message.make_query(Name.root(), RdataType.NS, msg_id=1)
        assert wire_length(root) == len(root.to_wire()) == 12 + 1 + 4 + 11
        relative = Message(question=[Question(Name.from_text("www"), RdataType.A)])
        assert wire_length(relative) is None

    def test_root_owner_records_are_one_octet_each_never_a_pointer(self):
        ns = [NS(target=Name.from_text(f"{c}.root-servers.net.")) for c in "abc"]
        message = Message(question=[Question(Name.root(), RdataType.NS)])
        message.answer = [RRset(name=Name.root(), rdtype=RdataType.NS, rdatas=ns)]
        wire = message.to_wire()
        assert wire_length(message) == len(wire)
        # question 1+4; each RR a 1-octet owner, 10 octets of TYPE to
        # RDLENGTH and its target, uncompressed (20)
        assert len(wire) == 12 + 5 + 3 * (1 + 10 + 20)

    def test_an_rrsets_second_record_past_the_pointer_limit(self):
        """The owner was registered by the first record, below 0x3FFF:
        the second, past it, still points there.  An owner first written
        past the limit is never registered, so its second record is
        written in full."""
        owner = Name.from_text("two.example.")
        question = [Question(Name.from_text("q.test."), RdataType.A)]

        def message(filler_length: int) -> Message:
            # header 12, question 8 + 4; filler owner "filler" + a
            # pointer to "test." (9) + 10: the filler's data at 43
            return Message(question=question, answer=[
                RRset(name=Name.from_text("filler.test."), rdtype=RdataType.NONE,
                      rdatas=[GenericRdata(data=bytes(filler_length))]),
                RRset(name=owner, rdtype=RdataType.NONE,
                      rdatas=[GenericRdata(data=bytes(40)), GenericRdata(data=b"\x01")]),
            ])

        first = 0x3FFF - 20
        early = message(first - 43)
        wire = early.to_wire()
        second = first + 13 + 10 + 40
        assert wire[first:first + 4] == b"\x03two" and second > 0x3FFF
        assert wire[second] & 0xC0 == 0xC0
        assert (wire[second] & 0x3F) << 8 | wire[second + 1] == first
        assert wire_length(early) == len(wire) == second + 2 + 10 + 1
        late = message(0x4000)
        assert wire_length(late) == len(late.to_wire()) == 43 + 0x4000 + 63 + 13 + 10 + 1

    def test_an_uncompressed_rdata_name_straddling_the_pointer_limit(self):
        """Only the suffixes of an NS target that start at or below
        0x3FFF become targets: "b.c.example." does, "c.example." starts
        at 0x4000 and does not."""
        target = Name.from_text("a.b.c.example.")
        zone = Name.from_text("example.")
        message = Message(question=[Question(Name.from_text("q.test."), RdataType.A)])
        # the NS rdata starts at 24 + (9 + 10 + L) + (9 + 10)
        length = 0x3FFC - 62
        message.answer = [
            RRset(name=Name.from_text("filler.test."), rdtype=RdataType.NONE,
                  rdatas=[GenericRdata(data=bytes(length))]),
        ]
        message.authority = [RRset.of(zone, RdataType.NS, NS(target=target))]
        message.additional = [
            RRset.of(Name.from_text("b.c.example."), RdataType.A, A(address="192.0.2.1")),
            RRset.of(Name.from_text("c.example."), RdataType.A, A(address="192.0.2.2")),
        ]
        wire = message.to_wire()
        assert wire.index(target.to_wire()) == 0x3FFC
        # NS target 15 in full; glue owners: a pointer, then "c" + a pointer
        assert wire_length(message) == len(wire) == 0x3FFC + 15 + (2 + 14) + (4 + 14)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressibleTarget(Rdata):
    """An rdata that asks for a compressible name, as RFC 1035 lets NS
    and CNAME do: its size is not its own to state."""

    rdtype: ClassVar[RdataType] = RdataType.NONE
    target: Name = Name.root()

    def write(self, writer: WireWriter, canonical: bool = False) -> None:
        writer.write_name(self.target)


class TestRefusals:
    def test_relative_name_is_refused_and_the_render_raises(self):
        message = Message()
        message.answer.append(
            RRset.of(Name.from_text("relative"), RdataType.A, A(address="192.0.2.1"))
        )
        assert wire_length(message) is None
        with pytest.raises(ValueError):
            message.to_wire()
        relative_target = Message()
        relative_target.answer.append(
            RRset.of(Name.root(), RdataType.NS, NS(target=Name.from_text("ns")))
        )
        assert wire_length(relative_target) is None

    def test_context_dependent_rdata_is_refused_and_lazywire_renders(self):
        owner = Name.from_text("www.example.com.")
        message = Message(question=[Question(owner, RdataType.A)])
        message.answer.append(
            RRset(name=owner, rdtype=RdataType.NONE,
                  rdatas=[CompressibleTarget(target=Name.from_text("example.com."))])
        )
        assert CompressibleTarget(target=owner).wire_shape() is None
        assert wire_length(message) is None
        wire = message.to_wire()
        assert len(LazyWire(message)) == len(wire)
        # ... and it did compress: 2 octets of rdata, not 13.
        assert len(wire) == 12 + 21 + 2 + 10 + 2


# ---------------------------------------------------------------------------
# whole worlds
# ---------------------------------------------------------------------------


class SizingFabric(NetworkFabric):
    """Sizes every wire the engine and the servers exchange *before*
    anything renders it, then renders it and compares."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sized = 0
        self.unsized = 0

    def _check(self, wire) -> None:
        if isinstance(wire, LazyWire):
            length = wire_length(wire.message)
            if length is None:
                self.unsized += 1
            else:
                self.sized += 1
                assert length == len(wire) == len(bytes(wire)), wire.message

    def send(self, destination, wire, **kwargs):
        self._check(wire)
        response = super().send(destination, wire, **kwargs)
        self._check(response)
        return response


def test_every_message_of_a_1000_domain_scan():
    population = generate_population(population_config_for(1000))
    wild = WildInternet(population, fabric=SizingFabric())
    result = WildScanner(wild).scan(use_lanes=False)
    fabric = wild.fabric
    assert fabric.unsized == 0
    # Every query and every delivered response was a sized LazyWire.
    assert fabric.sized == fabric.stats.datagrams_sent + fabric.stats.datagrams_delivered
    assert len(result.records) == len(population.domains)


def test_every_message_of_the_matrix(testbed, matrix, monkeypatch):
    fabric = testbed.fabric
    checker = SizingFabric()
    real_send = fabric.send

    def send(destination, wire, **kwargs):
        checker._check(wire)
        response = real_send(destination, wire, **kwargs)
        checker._check(response)
        return response

    monkeypatch.setattr(fabric, "send", send)
    result = run_matrix(testbed)
    assert checker.unsized == 0 and checker.sized > 2 * len(result.cells)
    assert {key: (c.rcode, c.ede_codes) for key, c in result.cells.items()} == {
        key: (c.rcode, c.ede_codes) for key, c in matrix.cells.items()
    }


def test_a_scan_on_the_shipped_fabric_renders_nothing(monkeypatch):
    population = generate_population(population_config_for(200))
    plain = WildInternet(population, fabric=PlainFabric())
    want = WildScanner(plain).scan(use_lanes=False)

    renders = []
    real = Message.to_wire
    monkeypatch.setattr(
        Message, "to_wire",
        lambda self, max_size=0: renders.append(self) or real(self, max_size),
    )
    wild = WildInternet(population, fabric=NetworkFabric())
    got = WildScanner(wild).scan(use_lanes=False)
    assert renders == []
    assert wild.fabric.stats == plain.fabric.stats
    assert wild.fabric.stats.bytes_received > wild.fabric.stats.bytes_sent > 0
    assert categorization_of(got) == categorization_of(want)
