"""Scripted server behaviours for the wild-scan tier.

The Internet-wide scan (paper Section 4) is dominated not by broken
DNSSEC but by broken *servers*: authorities that answer REFUSED or
SERVFAIL, time out, reply NOTAUTH, drop the OPT record, or answer a
different question.  These wrappers impose such behaviours on top of a
normal :class:`AuthoritativeServer` (or replace it entirely), so the
resolver under test observes exactly the pathologies Cloudflare's
EXTRA-TEXT strings describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..dns.edns import Edns
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rdata import A
from ..dns.render import LazyWire, paved_reply
from ..dns.rrset import RRset
from ..dns.types import RdataType
from .authoritative import AuthoritativeServer, PavedEndpoint


class Behavior(Enum):
    """Server-side pathologies observed in the wild scan."""

    NORMAL = "normal"
    REFUSED = "refused"  # answers REFUSED to everything
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"  # never answers
    NOTAUTH = "notauth"  # paper: Cached Error domains' authorities
    NO_EDNS = "no-edns"  # drops the OPT record (Invalid Data)
    MISMATCHED_QUESTION = "mismatched-question"
    REFUSE_NON_RECURSIVE = "refuse-non-recursive"  # paper section 4.2 item 14


@dataclass
class BehaviorServer(PavedEndpoint):
    """Fabric endpoint wrapping an inner server with a pathology."""

    inner: AuthoritativeServer
    behavior: Behavior = Behavior.NORMAL

    def handle_datagram(self, wire: bytes, source: str) -> bytes | None:
        # A server that never answers does not answer FORMERR either.
        if self.behavior is Behavior.TIMEOUT:
            return None
        return super().handle_datagram(wire, source)

    def handle_paved(
        self, wire: bytes | LazyWire, source: str, query: Message
    ) -> tuple[bytes | LazyWire | None, Message | None]:
        """Answer ``query`` (the parsed form of ``wire``) as the
        pathology dictates; never truncated (see
        :meth:`repro.net.fabric.NetworkFabric.send`)."""
        if self.behavior is Behavior.TIMEOUT:
            return None, None
        if self.behavior is Behavior.REFUSED:
            return self._rcode_response(query, Rcode.REFUSED)
        if self.behavior is Behavior.SERVFAIL:
            return self._rcode_response(query, Rcode.SERVFAIL)
        if self.behavior is Behavior.NOTAUTH:
            return self._rcode_response(query, Rcode.NOTAUTH)
        if self.behavior is Behavior.REFUSE_NON_RECURSIVE and not query.rd:
            return self._rcode_response(query, Rcode.REFUSED)

        response = self.inner.handle_query(query, source)
        if response is None:
            return None, None
        if self.behavior is Behavior.NO_EDNS:
            response.edns = None
        elif self.behavior is Behavior.MISMATCHED_QUESTION and response.question:
            original = response.question[0]
            response.question = [
                type(original)(
                    name=Name.from_text("wrong.invalid."),
                    rdtype=original.rdtype,
                    rdclass=original.rdclass,
                )
            ]
        return paved_reply(response)

    @staticmethod
    def _rcode_response(query: Message, rcode: Rcode) -> tuple[LazyWire, Message | None]:
        response = query.make_response(recursion_available=False)
        response.rcode = rcode
        if query.edns is not None and response.edns is None:
            response.edns = Edns()
        return paved_reply(response)


def make_simple_authority(
    zone_origin: Name, address: str = "192.0.2.10"
) -> AuthoritativeServer:
    """A minimal one-zone authority answering A queries (test helper)."""
    from ..zones.zone import Zone

    server = AuthoritativeServer(name=f"ns.{zone_origin}")
    zone = Zone(zone_origin)
    zone.add(RRset.of(zone_origin, RdataType.A, A(address=address), ttl=300))
    from ..dns.rdata import NS, SOA

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
