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

from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.render import LazyWire
from ..net.endpoint import Endpoint
from .authoritative import AuthoritativeServer


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
class BehaviorServer(Endpoint):
    """Fabric endpoint wrapping an inner server with a pathology."""

    inner: AuthoritativeServer
    behavior: Behavior = Behavior.NORMAL

    # A server that never answers does not answer FORMERR, BADVERS or
    # REFUSED either: TIMEOUT is silent at every door.

    def handle_datagram(self, wire: bytes, source: str) -> bytes | None:
        if self.behavior is Behavior.TIMEOUT:
            return None
        return super().handle_datagram(wire, source)

    def handle_paved(
        self, wire: bytes | LazyWire, source: str, query: Message
    ) -> bytes | LazyWire | None:
        if self.behavior is Behavior.TIMEOUT:
            return None
        return super().handle_paved(wire, source, query)

    def handle_stream(self, wire: bytes, source: str) -> bytes | None:
        if self.behavior is Behavior.TIMEOUT:
            return None
        return super().handle_stream(wire, source)

    def handle_query(self, query: Message, source: str = "192.0.2.0") -> Message | None:
        """Answer ``query`` as the pathology dictates."""
        if self.behavior is Behavior.REFUSED:
            return self._reply(query, Rcode.REFUSED)
        if self.behavior is Behavior.SERVFAIL:
            return self._reply(query, Rcode.SERVFAIL)
        if self.behavior is Behavior.NOTAUTH:
            return self._reply(query, Rcode.NOTAUTH)
        if self.behavior is Behavior.REFUSE_NON_RECURSIVE and not query.rd:
            return self._reply(query, Rcode.REFUSED)

        response = self.inner.handle_query(query, source)
        if response is None:
            return None
        if self.behavior is Behavior.NO_EDNS:
            response.edns = None
        elif self.behavior is Behavior.MISMATCHED_QUESTION:
            original = response.question[0]
            response.question = [
                type(original)(
                    name=Name.from_text("wrong.invalid."),
                    rdtype=original.rdtype,
                    rdclass=original.rdclass,
                )
            ]
        return response
