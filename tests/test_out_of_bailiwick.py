"""Out-of-bailiwick nameservers: glueless delegations must still resolve."""

import pytest

from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.server.authoritative import AuthoritativeServer
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

ROOT_IP = "192.0.9.71"
TLD_IP = "192.0.9.72"
DOM_IP = "192.0.9.73"
NSHOST_IP = "192.0.9.74"


@pytest.fixture()
def world(fabric):
    """example.test. is served by ns.provider.test. — a *glueless*
    delegation: the TLD referral carries no address, so the engine must
    resolve the nameserver's A record through a separate walk."""
    now = int(fabric.clock.now())

    def zone(origin_text, ns_ip, extra=()):
        origin = Name.from_text(origin_text)
        builder = ZoneBuilder(
            origin, now=now, mutation=ZoneMutation(algorithm=13, signed=False)
        )
        ns = Name.from_text("ns1", origin=origin)
        builder.add(RRset.of(origin, RdataType.NS, NS(target=ns)))
        builder.add(RRset.of(ns, RdataType.A, A(address=ns_ip)))
        builder.ensure_soa()
        for rrset in extra:
            builder.add(rrset)
        return builder.build().zone

    # the target domain, hosted at DOM_IP by the provider's nameserver
    dom_server = AuthoritativeServer("provider-ns")
    dom_builder = ZoneBuilder(
        Name.from_text("example.test."), now=now,
        mutation=ZoneMutation(algorithm=13, signed=False),
    )
    dom_builder.add(RRset.of(
        Name.from_text("example.test."), RdataType.NS,
        NS(target=Name.from_text("ns.provider.test.")),
    ))
    dom_builder.add(RRset.of(
        Name.from_text("example.test."), RdataType.A, A(address="203.0.113.10"),
    ))
    dom_builder.ensure_soa()
    dom_server.add_zone(dom_builder.build().zone)
    fabric.register(DOM_IP, dom_server)

    # the provider zone, with the nameserver's A record
    provider_server = AuthoritativeServer("provider")
    provider_server.add_zone(zone("provider.test.", NSHOST_IP, extra=[
        RRset.of(Name.from_text("ns.provider.test."), RdataType.A,
                 A(address=DOM_IP)),
    ]))
    fabric.register(NSHOST_IP, provider_server)

    # the TLD: glueless referral for example.test., glued for provider.test.
    tld_server = AuthoritativeServer("tld")
    tld_server.add_zone(zone("test.", TLD_IP, extra=[
        RRset.of(Name.from_text("example.test."), RdataType.NS,
                 NS(target=Name.from_text("ns.provider.test."))),
        RRset.of(Name.from_text("provider.test."), RdataType.NS,
                 NS(target=Name.from_text("ns1.provider.test."))),
        RRset.of(Name.from_text("ns1.provider.test."), RdataType.A,
                 A(address=NSHOST_IP)),
    ]))
    fabric.register(TLD_IP, tld_server)

    root_server = AuthoritativeServer("root")
    root_server.add_zone(zone(".", ROOT_IP, extra=[
        RRset.of(Name.from_text("test."), RdataType.NS,
                 NS(target=Name.from_text("ns1.test."))),
        RRset.of(Name.from_text("ns1.test."), RdataType.A, A(address=TLD_IP)),
    ]))
    fabric.register(ROOT_IP, root_server)
    return fabric


class TestGluelessDelegation:
    def test_resolves_through_ns_chase(self, world):
        engine = IterativeEngine(world, [ROOT_IP])
        events = []
        result = engine.resolve(Name.from_text("example.test."), RdataType.A, events)
        assert result.ok
        assert result.rcode == Rcode.NOERROR
        answers = [r for r in result.answer if r.rdtype == RdataType.A]
        assert answers[0].rdatas == (A(address="203.0.113.10"),)

    def test_ns_chase_depth_limit(self, world):
        engine = IterativeEngine(
            world, [ROOT_IP], EngineConfig(max_ns_depth=0)
        )
        events = []
        result = engine.resolve(Name.from_text("example.test."), RdataType.A, events)
        assert not result.ok
        assert result.rcode == Rcode.SERVFAIL

    def test_provider_outage_breaks_glueless_child(self, world):
        """When the provider's own zone is unreachable, the glueless child
        becomes lame — the paper's '241k cases were, for example,
        unreachable DNS provider domains'."""
        world.unregister(NSHOST_IP)
        engine = IterativeEngine(world, [ROOT_IP])
        events = []
        result = engine.resolve(Name.from_text("example.test."), RdataType.A, events)
        assert not result.ok
        kinds = {e.event.name for e in events}
        assert "ALL_SERVERS_FAILED" in kinds
