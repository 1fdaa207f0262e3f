"""The one door: every endpoint answers through :class:`Endpoint`.

A query reaches an endpoint three ways — a datagram (bytes in, bytes
out), a *paved* send on the in-process fabric (the sender's parsed
query in, a :class:`~repro.dns.render.LazyWire` of the reply out — see
:meth:`~repro.net.fabric.NetworkFabric.send`) and a stream (TCP: bytes
in, bytes out).  An endpoint writes only its answer body,
``handle_query`` — plus ``handle_axfr`` where it serves zone
transfers — and the three doors apply six rules, in this order, once
for everybody:

1. a wire that does not decode gets FORMERR echoing its header
   (:func:`~repro.dns.render.header_reply`);
2. an EDNS version above 0 gets BADVERS (RFC 6891 section 6.1.3,
   :meth:`~repro.dns.message.Message.badvers_response`);
3. a query without a question gets FORMERR;
4. AXFR is answered on the stream door only: a datagram or paved AXFR
   gets REFUSED (RFC 5936 section 4.2);
5. a datagram or paved reply fits ``max(512, payload)`` octets or
   becomes :meth:`~repro.dns.message.Message.truncated` (RFC 6891
   section 7); a stream reply is never truncated;
6. an ``Exception`` out of rule 0 or the body becomes a SERVFAIL
   echoing the query.  A ``BaseException`` — the lane pool's abort —
   passes through.

So no door raises, and the paved and byte verdicts are one verdict:
both doors run the same rules over the same body.

The datagram door puts one rule in front of the six:

0. a datagram the endpoint kept a reply for — the same bytes but for
   the message ID — is answered with that reply before anything is
   decoded (:meth:`Endpoint.stored_reply`).  Every reply the door
   encodes is offered back (:meth:`Endpoint.keep_reply`), and the
   endpoint keeps what its body marked as a cache hit.

The base keeps nothing.  The recursive resolver keeps rendered replies
in its :class:`~repro.resolver.cache.RenderedWireCache`, and the
shedding frontend serves from its resolver's; both count a stored reply
as the answer it replays.
"""

from __future__ import annotations

from ..dns.message import Message
from ..dns.rcode import Rcode
from ..dns.render import LazyWire, header_reply, paved_reply
from ..dns.types import RdataType


def _reply_limit(query: Message) -> int:
    """Rule 5: the octets a datagram reply to ``query`` may take."""
    return 512 if query.edns is None else max(512, query.edns.payload)


class Endpoint:
    """The three doors and six rules every fabric endpoint answers by.

    A subclass writes the answer body, :meth:`handle_query`."""

    #: The RA bit of the replies the doors make themselves.
    recursion_available = False

    def handle_query(self, query: Message, source: str) -> Message | None:
        """The answer body: the reply to ``query`` — which has a question,
        EDNS version 0 at most and is no AXFR — or None to stay silent."""
        raise NotImplementedError

    def handle_axfr(self, query: Message, source: str) -> Message | None:
        """A zone transfer asked for on the stream door; REFUSED unless
        the endpoint serves transfers."""
        return self._reply(query, Rcode.REFUSED)

    def on_door_reply(self, rcode: int) -> None:
        """Called once for each reply a door makes in place of the body —
        FORMERR, BADVERS, a datagram AXFR's REFUSED, or the SERVFAIL of a
        body that raised.  For counters and per-query state; the default
        does nothing."""

    def stored_reply(self, wire: bytes, source: str) -> bytes | None:
        """Rule 0: the reply kept for ``wire``, patched for it and counted
        as the answer it replays — or None, and the door decodes ``wire``.
        The default keeps nothing."""
        return None

    def keep_reply(self, wire: bytes, reply: Message, encoded: bytes) -> None:
        """Offered every reply the datagram door encodes: ``encoded`` is
        ``reply`` rendered for the query ``wire``.  An endpoint keeps it
        for :meth:`stored_reply` when its body marked ``reply`` as a
        cache hit; the default keeps nothing."""

    # -- the doors -----------------------------------------------------------

    def handle_datagram(self, wire: bytes, source: str) -> bytes | None:
        """The reply datagram to ``wire``, or None to drop it."""
        try:
            stored = self.stored_reply(wire, source)
            if stored is not None:
                return stored
            try:
                query = Message.from_wire(wire)
            except Exception:
                return self._header_reply(wire, Rcode.FORMERR)
            response = self._answer(query, source, stream=False)
            if response is None:
                return None
            encoded = response.to_wire(_reply_limit(query))
            self.keep_reply(wire, response, encoded)
            return encoded
        except Exception:
            return self._header_reply(wire, Rcode.SERVFAIL)

    def handle_paved(
        self, wire: bytes | LazyWire, source: str, query: Message
    ) -> bytes | LazyWire | None:
        """The datagram door for a ``query`` the sender already parsed
        from ``wire``: the reply wire, a :class:`LazyWire` of the reply
        whenever it fits (:func:`~repro.dns.render.paved_reply`)."""
        try:
            response = self._answer(query, source, stream=False)
            return None if response is None else paved_reply(response, _reply_limit(query))
        except Exception:
            return self._header_reply(bytes(wire), Rcode.SERVFAIL)

    def handle_stream(self, wire: bytes, source: str) -> bytes | None:
        """TCP: the same rules and body, never truncated, AXFR served."""
        try:
            query = Message.from_wire(wire)
        except Exception:
            return self._header_reply(wire, Rcode.FORMERR)
        try:
            response = self._answer(query, source, stream=True)
            return None if response is None else response.to_wire()
        except Exception:
            return self._header_reply(wire, Rcode.SERVFAIL)

    # -- the rules between a decoded query and the body ----------------------

    def _answer(self, query: Message, source: str, stream: bool) -> Message | None:
        reply = query.badvers_response(self.recursion_available)
        if reply is None:
            if not query.question:
                reply = self._reply(query, Rcode.FORMERR)
            elif query.question[0].rdtype != RdataType.AXFR:
                return self.handle_query(query, source)
            elif stream:
                return self.handle_axfr(query, source)
            else:
                reply = self._reply(query, Rcode.REFUSED)
        self.on_door_reply(reply.rcode)
        return reply

    def _reply(self, query: Message, rcode: Rcode) -> Message:
        reply = query.make_response(self.recursion_available)
        reply.rcode = rcode
        return reply

    def _header_reply(self, wire: bytes, rcode: Rcode) -> bytes:
        self.on_door_reply(rcode)
        return header_reply(wire, rcode)
