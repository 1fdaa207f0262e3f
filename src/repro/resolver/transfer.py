"""AXFR client (RFC 5936) — how the paper obtained four ccTLD zone files.

Section 4.1: "``.se``, ``.nu``, ``.ch``, ``.li`` top-level domain zone
files accessible via AXFR zone transfers".  :func:`axfr` performs the
transfer over the fabric's TCP path and returns the received records as
a :class:`~repro.zones.zone.Zone`; :func:`axfr_domains` extracts the
registered-domain list a scanner actually wants from it.
"""

from __future__ import annotations

import random

from ..dns.exceptions import DnsError
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.types import RdataType
from ..net.fabric import NetworkFabric, TransportError
from ..zones.zone import Zone


class TransferError(DnsError):
    """The zone transfer was refused or malformed."""


def axfr(
    fabric: NetworkFabric,
    server: str,
    zone_name: Name | str,
    source_ip: str = "198.51.100.2",
    timeout: float = 10.0,
    rng: "random.Random | None" = None,
) -> Zone:
    """Transfer ``zone_name`` from ``server``; raises TransferError."""
    if isinstance(zone_name, str):
        zone_name = Name.from_text(zone_name)
    query = Message.make_query(
        zone_name, RdataType.AXFR, recursion_desired=False, use_edns=False,
        rng=rng,
    )
    try:
        raw = fabric.send(
            server, query.to_wire(), source=source_ip,
            timeout=timeout, transport="tcp",
        )
    except TransportError as exc:
        raise TransferError(f"transfer transport failure: {exc}") from exc
    # AXFR responses are the largest messages in the system; parse them
    # through a memoryview so the reader slices labels and rdata out of
    # the receive buffer without an up-front copy.
    response = Message.from_wire(memoryview(raw))
    if response.rcode != Rcode.NOERROR:
        raise TransferError(
            f"transfer refused: rcode {Rcode(response.rcode).name}"
        )
    if not response.answer:
        raise TransferError("empty transfer")
    first = response.answer[0]
    if first.rdtype != RdataType.SOA or first.name != zone_name:
        raise TransferError("transfer does not start with the zone SOA")

    zone = Zone(zone_name)
    for rrset in response.answer:
        zone.add(rrset)
    return zone


def axfr_domains(zone: Zone) -> list[str]:
    """Registered domains (delegation points) found in a TLD zone."""
    names = set()
    for rrset in zone.all_rrsets():
        if rrset.rdtype == RdataType.NS and rrset.name != zone.origin:
            names.add(str(rrset.name).rstrip("."))
    return sorted(names)
