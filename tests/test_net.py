"""Clock, special-purpose address registries, and the fabric."""

import pytest

from repro.dns.message import Message
from repro.dns.render import LazyWire, read_reply
from repro.dns.types import RdataType
from repro.net.addresses import TESTBED_GLUE, classify, is_globally_routable
from repro.net.clock import SimulatedClock
from repro.net.endpoint import Endpoint
from repro.net.fabric import (
    LinkProperties,
    NetworkFabric,
    Timeout,
    Unreachable,
)


class TestClock:
    def test_starts_at_paper_epoch(self):
        assert SimulatedClock().now() == SimulatedClock.PAPER_EPOCH

    def test_advance(self):
        clock = SimulatedClock(start=100.0)
        clock.advance(5)
        assert clock.now() == 105.0

    def test_no_backwards(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.set(0)

    def test_set_forward(self):
        clock = SimulatedClock(start=10)
        clock.set(50)
        assert clock.now() == 50


class TestAddressClassification:
    @pytest.mark.parametrize(
        "address",
        [
            "10.1.2.3", "172.16.0.1", "192.168.1.1", "127.0.0.1", "0.0.0.0",
            "169.254.1.1", "192.0.2.53", "198.51.100.1", "203.0.113.9",
            "240.0.0.1", "255.255.255.255",
        ],
    )
    def test_ipv4_special(self, address):
        assert classify(address).special
        assert not is_globally_routable(address)

    @pytest.mark.parametrize(
        "address",
        ["::", "::1", "fe80::53", "fd00::1", "ff02::1", "2001:db8::1",
         "::ffff:192.0.2.1", "64:ff9b::1.2.3.4", "::192.0.2.77"],
    )
    def test_ipv6_special(self, address):
        assert classify(address).special

    @pytest.mark.parametrize(
        "address", ["8.8.8.8", "1.1.1.1", "185.199.108.153", "2606:4700::1111"]
    )
    def test_routable(self, address):
        assert is_globally_routable(address)

    def test_purpose_strings(self):
        assert classify("127.0.0.1").purpose == "loopback"
        assert classify("10.0.0.1").purpose == "private-use"
        assert classify("::1").purpose == "loopback"

    def test_longest_prefix_match(self):
        # ::1 must match the /128 loopback, not the deprecated ::/96.
        assert classify("::1").purpose == "loopback"

    def test_every_testbed_glue_is_special(self):
        # Groups 6-7 of the paper rely on all of these being unroutable.
        for address in TESTBED_GLUE.values():
            assert classify(address).special, address

    def test_testbed_glue_count(self):
        assert len(TESTBED_GLUE) == 18  # 10 AAAA cases + 8 A cases


PING = Message.make_query("ping.test.", RdataType.A, msg_id=7)


class _Echo(Endpoint):
    """Answers every query with its bare response, or stays silent."""

    def __init__(self, silent: bool = False):
        self.silent = silent
        self.received: list[tuple[Message, str]] = []

    def handle_query(self, query: Message, source: str) -> Message | None:
        self.received.append((query, source))
        return None if self.silent else query.make_response()


class TestFabric:
    def test_round_trip(self):
        fabric = NetworkFabric()
        echo = _Echo()
        fabric.register("192.0.9.1", echo)
        reply = fabric.send("192.0.9.1", PING.to_wire(), source="1.2.3.4")
        assert reply == PING.make_response().to_wire()
        assert echo.received == [(PING, "1.2.3.4")]

    def test_paved_round_trip(self):
        """A send carrying its Message hands the endpoint that very
        Message, and the reply's Message comes back unparsed."""
        fabric = NetworkFabric()
        echo = _Echo()
        fabric.register("192.0.9.1", echo)
        reply = fabric.send("192.0.9.1", LazyWire(PING), message=PING)
        assert echo.received[0][0] is PING
        assert read_reply(reply) is reply.message
        assert bytes(reply) == PING.make_response().to_wire()

    def test_special_destination_unreachable(self):
        fabric = NetworkFabric()
        with pytest.raises(Unreachable):
            fabric.send("10.0.0.1", b"x")
        assert fabric.stats.unreachable == 1

    def test_cannot_host_on_special_address(self):
        fabric = NetworkFabric()
        with pytest.raises(ValueError):
            fabric.register("192.168.1.1", _Echo())

    def test_unregistered_routable_times_out(self):
        fabric = NetworkFabric()
        before = fabric.clock.now()
        with pytest.raises(Timeout):
            fabric.send("8.8.4.4", b"x", timeout=2.0)
        assert fabric.clock.now() == pytest.approx(before + 2.0)
        assert fabric.stats.timeouts == 1

    def test_latency_advances_clock(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo(), link=LinkProperties(latency=0.25))
        before = fabric.clock.now()
        fabric.send("192.0.9.1", PING.to_wire())
        assert fabric.clock.now() == pytest.approx(before + 0.25)

    def test_down_link_times_out(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo())
        fabric.link("192.0.9.1").down = True
        with pytest.raises(Timeout):
            fabric.send("192.0.9.1", PING.to_wire())

    def test_none_reply_is_timeout(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo(silent=True))
        with pytest.raises(Timeout):
            fabric.send("192.0.9.1", PING.to_wire())

    def test_full_loss_always_times_out(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo(), link=LinkProperties(loss_rate=1.0))
        with pytest.raises(Timeout):
            fabric.send("192.0.9.1", PING.to_wire())
        assert fabric.stats.datagrams_lost == 1

    def test_route_filter(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo())
        fabric.set_route_filter(lambda dst: dst != "192.0.9.1")
        with pytest.raises(Unreachable):
            fabric.send("192.0.9.1", PING.to_wire())
        fabric.set_route_filter(None)
        assert fabric.send("192.0.9.1", PING.to_wire()) == PING.make_response().to_wire()

    def test_unregister(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo())
        fabric.unregister("192.0.9.1")
        with pytest.raises(Timeout):
            fabric.send("192.0.9.1", PING.to_wire())

    def test_stats_bytes(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo())
        fabric.send("192.0.9.1", PING.to_wire())
        assert fabric.stats.bytes_sent == len(PING.to_wire())
        assert fabric.stats.bytes_received == len(PING.make_response().to_wire())

    def test_endpoints_listing(self):
        fabric = NetworkFabric()
        fabric.register("192.0.9.1", _Echo())
        fabric.register("192.0.9.2", _Echo(), port=5353)
        assert fabric.endpoints() == [("192.0.9.1", 53), ("192.0.9.2", 5353)]
