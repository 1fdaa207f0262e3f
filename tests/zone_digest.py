"""Test-only: an order-independent digest of what zones contain.

``Zone.all_rrsets()`` promises content, not a byte-stable enumeration
order across store designs (see the ``Zone`` docstring), so content
gates sort: one row per RRset by (canonical owner, type).  The rdatas
*within* an RRset keep their stored order — that order reaches the wire.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from repro.net.fabric import NetworkFabric
from repro.zones.zone import Zone


def zone_rows(zone: Zone) -> list[str]:
    keyed = sorted(
        (
            rrset.name.canonical_wire(),
            int(rrset.rdtype),
            f"{rrset.name} {int(rrset.rdclass)} {int(rrset.rdtype)} {rrset.ttl} "
            + " ".join(rdata.to_wire().hex() for rdata in rrset.rdatas),
        )
        for rrset in zone.all_rrsets()
    )
    return [row for _owner, _rdtype, row in keyed]


def content_digest(zones: Iterable[Zone]) -> str:
    digest = hashlib.sha256()
    for zone in sorted(zones, key=lambda z: z.origin.canonical_wire()):
        digest.update(f"$ORIGIN {zone.origin} {len(zone)}\n".encode())
        digest.update("\n".join(zone_rows(zone)).encode())
    return digest.hexdigest()


def delegation_digest(wild) -> str:
    """Every delegation a universe's TLDs synthesize, in population
    order: NS names, glue owner/family/address, DS rdatas."""
    rows = []
    for domain in wild.population.domains:
        delegation = wild.delegation_for(domain)
        rows.append(" | ".join([
            domain.name,
            " ".join(str(rdata.target) for rdata in delegation.ns.rdatas),
            " ".join(
                f"{glue.name} {int(glue.rdtype)} {rdata.address}"
                for glue in delegation.glue for rdata in glue.rdatas
            ),
            " ".join(
                rdata.to_wire().hex()
                for rdata in (delegation.ds.rdatas if delegation.ds is not None else [])
            ),
        ]))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def served_zones(fabric: NetworkFabric) -> list[Zone]:
    """Every zone an ``AuthoritativeServer`` on ``fabric`` serves."""
    zones: dict[int, Zone] = {}
    for endpoint in fabric.registered_endpoints():
        server = getattr(endpoint, "inner", endpoint)
        if hasattr(server, "zones"):
            zones.update((id(zone), zone) for zone in server.zones())
    return list(zones.values())
