"""Test-only authorities small enough to build in every test."""

from __future__ import annotations

from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.server.authoritative import AuthoritativeServer
from repro.zones.zone import Zone


def make_simple_authority(
    zone_origin: Name, address: str = "192.0.2.10"
) -> AuthoritativeServer:
    """A minimal one-zone authority answering A queries."""
    server = AuthoritativeServer(name=f"ns.{zone_origin}")
    zone = Zone(zone_origin)
    zone.add(RRset.of(zone_origin, RdataType.A, A(address=address), ttl=300))
    zone.add(
        RRset.of(
            zone_origin,
            RdataType.SOA,
            SOA(
                mname=Name.from_text("ns1", origin=zone_origin),
                rname=Name.from_text("hostmaster", origin=zone_origin),
                serial=1,
            ),
        )
    )
    zone.add(
        RRset.of(
            zone_origin,
            RdataType.NS,
            NS(target=Name.from_text("ns1", origin=zone_origin)),
        )
    )
    server.add_zone(zone)
    return server
