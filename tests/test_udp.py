"""Real-UDP integration: the stack speaks over genuine loopback sockets."""

import asyncio

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.types import RdataType
from repro.net.endpoint import Endpoint
from repro.net.udp import UdpServer, serve_and_query, udp_query

from .authorities import make_simple_authority


class TestUdpAuthoritative:
    def test_query_over_real_socket(self):
        server = make_simple_authority(Name.from_text("udp.test."), address="192.0.2.7")
        query = Message.make_query("udp.test.", RdataType.A)
        (raw,) = serve_and_query(server, [query.to_wire()])
        response = Message.from_wire(raw)
        assert response.id == query.id
        assert response.rcode == Rcode.NOERROR
        assert response.answer[0].rdatas[0].address == "192.0.2.7"

    def test_multiple_queries_one_socket(self):
        server = make_simple_authority(Name.from_text("multi.test."))
        queries = [
            Message.make_query("multi.test.", RdataType.A).to_wire(),
            Message.make_query("nx.multi.test.", RdataType.A).to_wire(),
            Message.make_query("multi.test.", RdataType.NS).to_wire(),
        ]
        responses = [Message.from_wire(raw) for raw in serve_and_query(server, queries)]
        assert responses[0].rcode == Rcode.NOERROR
        assert responses[1].rcode == Rcode.NXDOMAIN
        assert responses[2].find_answer(Name.from_text("multi.test."), RdataType.NS)

    def test_garbage_gets_formerr(self):
        server = make_simple_authority(Name.from_text("g.test."))
        (raw,) = serve_and_query(server, [b"\x00\x01\x02"])
        assert Message.from_wire(raw).rcode == Rcode.FORMERR

    def test_client_timeout_on_silent_server(self):
        class Silent:
            def handle_datagram(self, wire, source):
                return None

        async def run():
            server = UdpServer(endpoint=Silent())
            host, port = await server.start()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await udp_query(b"ping", host, port, timeout=0.2)
            finally:
                await server.stop()

        asyncio.run(run())

    def test_ede_survives_real_transport(self, testbed):
        """A full recursive resolver behind a real socket still delivers
        RFC 8914 options intact."""
        from repro.resolver.profiles import CLOUDFLARE
        from repro.resolver.recursive import RecursiveResolver

        resolver = RecursiveResolver(
            fabric=testbed.fabric, profile=CLOUDFLARE,
            root_hints=testbed.root_hints, trust_anchors=testbed.trust_anchors,
        )
        deployed = testbed.cases["ds-bad-tag"]
        query = Message.make_query(deployed.query_name, RdataType.A)
        (raw,) = serve_and_query(resolver, [query.to_wire()])
        response = Message.from_wire(raw)
        assert response.rcode == Rcode.SERVFAIL
        assert response.ede_codes == (9,)


class TestUdpFailurePaths:
    """A raising answer body must never swallow the datagram (the client
    would burn its full timeout waiting): the endpoint's own door
    degrades to FORMERR/SERVFAIL, so the socket layer has nothing to
    catch."""

    class Exploding(Endpoint):
        def handle_query(self, query, source):
            raise RuntimeError("boom")

    def test_raising_body_answers_header_echoed_servfail(self):
        query = Message.make_query("kaboom.test.", RdataType.A)
        (raw,) = serve_and_query(self.Exploding(), [query.to_wire()])
        response = Message.from_wire(raw)
        assert response.id == query.id and response.qr
        assert response.rcode == Rcode.SERVFAIL
        # The query rides along: question and OPT echoed.
        assert response.question == query.question
        assert response.edns is not None

    def test_raising_endpoint_on_garbage_answers_formerr(self):
        garbage = bytes([0xAB] * 16)
        (raw,) = serve_and_query(self.Exploding(), [garbage])
        assert raw[:2] == garbage[:2]  # message ID echoed for correlation
        assert raw[2] & 0x80  # QR set
        assert (raw[3] & 0x0F) == Rcode.FORMERR

    def test_raising_endpoint_on_short_garbage_answers_formerr(self):
        (raw,) = serve_and_query(self.Exploding(), [b"\x07"])
        assert Message.from_wire(raw).rcode == Rcode.FORMERR
