"""Truncation and TCP fallback (RFC 6891 size limits, RFC 7766 retry)."""

import pytest

from repro.dns.ede import EdeCode
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import A, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

BIG = Name.from_text("big.test.")
SERVER_IP = "192.0.9.10"


@pytest.fixture()
def big_server(fabric):
    """A zone whose TXT RRset cannot fit in 512 octets."""
    builder = ZoneBuilder(
        BIG, now=int(fabric.clock.now()),
        mutation=ZoneMutation(algorithm=13, signed=False),
    )
    ns = Name.from_text("ns1.big.test.")
    builder.add(RRset.of(BIG, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address=SERVER_IP)))
    big_txt = RRset.of(
        BIG, RdataType.TXT,
        *[TXT(strings=(bytes([65 + i]) * 200,)) for i in range(6)],
    )
    builder.add(big_txt)
    builder.ensure_soa()
    server = AuthoritativeServer("ns1.big.test")
    server.add_zone(builder.build().zone)
    fabric.register(SERVER_IP, server)
    return server


class TestServerSideTruncation:
    def test_small_payload_gets_tc(self, big_server):
        query = Message.make_query(BIG, RdataType.TXT, use_edns=False)
        raw = big_server.handle_datagram(query.to_wire(), "1.2.3.4")
        assert len(raw) <= 512
        response = Message.from_wire(raw)
        assert response.tc
        assert not response.answer

    def test_big_edns_payload_fits(self, big_server):
        query = Message.make_query(BIG, RdataType.TXT, payload=4096)
        raw = big_server.handle_datagram(query.to_wire(), "1.2.3.4")
        response = Message.from_wire(raw)
        assert not response.tc
        assert response.answer

    def test_stream_never_truncates(self, big_server):
        query = Message.make_query(BIG, RdataType.TXT, use_edns=False)
        raw = big_server.handle_stream(query.to_wire(), "1.2.3.4")
        response = Message.from_wire(raw)
        assert not response.tc
        assert len(response.answer[0]) == 6

    def test_small_answers_unaffected(self, big_server):
        query = Message.make_query(BIG, RdataType.NS, use_edns=False)
        response = Message.from_wire(
            big_server.handle_datagram(query.to_wire(), "1.2.3.4")
        )
        assert not response.tc and response.answer


class TestTruncatedForm:
    """``Message.truncated()`` is the one statement of the TC=1 form."""

    def big_response(self, **query_kwargs) -> Message:
        query = Message.make_query(BIG, RdataType.TXT, msg_id=9, **query_kwargs)
        query.cd = True
        response = query.make_response(recursion_available=False)
        response.aa = response.ad = True
        response.answer.append(RRset.of(
            BIG, RdataType.TXT,
            *[TXT(strings=(bytes([65 + i]) * 200,)) for i in range(6)],
        ))
        return response

    def test_cd_is_echoed_and_ad_cleared(self):
        """RFC 4035 section 3.2.2: CD is copied from the query into the
        response — the truncated one included.  AD vouches for records
        that are no longer there."""
        response = self.big_response(want_dnssec=True)
        parsed = Message.from_wire(response.to_wire(max_size=512))
        assert parsed.tc and parsed.cd and not parsed.ad
        assert parsed.aa and parsed.id == 9 and parsed.question == response.question
        assert parsed.edns is not None and parsed.edns.dnssec_ok
        assert not parsed.section_rrsets()

    def test_to_wire_and_paved_reply_share_the_form(self):
        from repro.dns.render import paved_reply

        response = self.big_response()
        wire = paved_reply(response, 512)
        assert wire == response.to_wire(max_size=512) == response.truncated().to_wire()
        # Neither path marks the message it truncated.
        assert not response.tc and response.answer

    def test_long_extra_text_goes_first(self):
        """The form must itself fit: RFC 8914 section 3 drops EXTRA-TEXT
        before other data, and RFC 6891 section 7 keeps the OPT.  A
        600-octet EXTRA-TEXT used to ride along whole (646 octets)."""
        response = self.big_response()
        response.add_ede(EdeCode.NETWORK_ERROR, "x" * 600)
        wire = response.to_wire(max_size=512)
        parsed = Message.from_wire(wire)
        assert len(wire) <= 512 and parsed.tc and parsed.edns is not None
        assert [(e.info_code, e.extra_text) for e in parsed.extended_errors] == [(23, "")]
        # The reply keeps its own OPT whole: the form has its own Edns.
        assert response.extended_errors[0].extra_text == "x" * 600
        assert response.truncated().edns is not response.edns

    def test_ede_options_go_next_and_the_opt_stays(self):
        from repro.dns.render import paved_reply

        response = self.big_response()
        for code in range(100):  # 600 octets of options without text
            response.add_ede(code)
        wire = response.to_wire(max_size=512)
        parsed = Message.from_wire(wire)
        assert len(wire) <= 512 and parsed.tc
        assert parsed.edns is not None and not parsed.edns.options
        assert paved_reply(response, 512) == wire

    def test_server_echoes_cd_when_truncating(self, big_server):
        query = Message.make_query(BIG, RdataType.TXT, use_edns=False)
        query.cd = True
        response = Message.from_wire(
            big_server.handle_datagram(query.to_wire(), "1.2.3.4")
        )
        assert response.tc and response.cd


class TestEngineTcpFallback:
    def test_engine_retries_over_tcp(self, fabric, big_server):
        engine = IterativeEngine(
            fabric, [SERVER_IP], EngineConfig(payload=512)
        )
        events = []
        result = engine.resolve(BIG, RdataType.TXT, events)
        assert result.ok
        answer = [r for r in result.answer if r.rdtype == RdataType.TXT]
        assert answer and len(answer[0]) == 6
        assert fabric.stats.tcp_queries == 1

    def test_no_tcp_when_it_fits(self, fabric, big_server):
        engine = IterativeEngine(fabric, [SERVER_IP], EngineConfig(payload=4096))
        events = []
        result = engine.resolve(BIG, RdataType.TXT, events)
        assert result.ok
        assert fabric.stats.tcp_queries == 0

    def test_tcp_costs_extra_latency(self, fabric, big_server):
        engine = IterativeEngine(fabric, [SERVER_IP], EngineConfig(payload=512))
        before = fabric.clock.now()
        engine.resolve(BIG, RdataType.TXT, [])
        # one UDP round trip (0.01) + TCP handshake + query (0.02)
        assert fabric.clock.now() - before == pytest.approx(0.03)
