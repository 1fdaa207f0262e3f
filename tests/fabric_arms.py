"""Test-only arms of the differentials ``src/`` has no switch for.

``src/`` has no switch between the paved path and the byte path — the
engine always offers its parsed query and the fabric paves whenever it
soundly can.  The byte-path arm the differential gates compare against
therefore lives here: :class:`PlainFabric` simply never forwards
``message=``.  :class:`CountingFabric` is the paved arm with the
evidence the gates need to be non-vacuous, and it checks the hand-off
ownership rule on every send.

Nor does it have a switch for the resolver's rendered-wire cache, rule 0
of the datagram door: :func:`render_off` makes the arm without it.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from repro.dns.render import LazyWire, parse_equivalent
from repro.net import endpoint
from repro.net.fabric import NetworkFabric


def handed_back(wire):
    """The Message :func:`repro.dns.render.read_reply` takes from
    ``wire`` in place of a parse, or None when it parses the bytes."""
    if isinstance(wire, LazyWire) and parse_equivalent(wire.message):
        return wire.message
    return None


class CountingFabric(NetworkFabric):
    """Paved arm: counts hand-backs, asserts nobody mutates a hand-off."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Sends that carried the caller's parsed query.
        self.offered = 0
        #: (response Message the caller took instead of parsing, the
        #: wire it stood in for, rendered when the send returned), every
        #: one.
        self.handed_back: list[tuple[object, bytes]] = []

    def send(self, destination, wire, **kwargs):
        message = kwargs.get("message")
        if message is not None:
            self.offered += 1
        # Rendered before the endpoint can touch the query it is made of.
        sent = bytes(wire)
        try:
            response = super().send(destination, wire, **kwargs)
        finally:
            # The endpoint received the engine's own query object; it
            # must still encode to exactly the bytes that were "sent".
            if message is not None:
                assert message.to_wire() == sent, "endpoint mutated the query"
        # Rendered now, while the response is as the endpoint left it —
        # and it must be as long as the fabric just counted it to be.
        rendered = bytes(response)
        assert len(rendered) == len(response), "sized != rendered"
        parsed = handed_back(response)
        if parsed is not None:
            self.handed_back.append((parsed, rendered))
        return response

    @property
    def handbacks(self) -> int:
        return len(self.handed_back)

    def mutated_handbacks(self) -> int:
        """Handed-back responses that no longer re-encode to the wire
        they stood in for — i.e. the receiving side wrote to them."""
        return sum(parsed.to_wire() != wire for parsed, wire in self.handed_back)


class PlainFabric(CountingFabric):
    """Byte-path arm: never forwards ``message=``, so every endpoint
    sees ``handle_datagram`` and every response is re-parsed."""

    def send(self, destination, wire, **kwargs):
        kwargs.pop("message", None)
        return super().send(destination, wire, **kwargs)


def render_off(*resolvers):
    """The render-off arm: each resolver keeps no reply, so rule 0 of its
    datagram door, and of a frontend in front of it, never serves one
    and every datagram is decoded and answered by the body."""
    for resolver in resolvers:
        resolver.keep_reply = lambda wire, reply, encoded: None


def count_handback_verdicts(monkeypatch) -> Counter:
    """Count ``paved_reply`` outcomes (True = Message handed back,
    False = refusal → the sender parses the wire) for the rest of the
    test, at the one door that answers through it."""
    verdicts: Counter = Counter()
    real = endpoint.paved_reply

    def counting(response, max_size=0):
        wire = real(response, max_size)
        verdicts[handed_back(wire) is not None] += 1
        return wire

    monkeypatch.setattr(endpoint, "paved_reply", counting)
    return verdicts


def _rrset_rows(rrsets) -> list[str]:
    return sorted(
        f"{rrset.name} {int(rrset.rdclass)} {int(rrset.rdtype)} {rrset.ttl} "
        + " ".join(sorted(rdata.to_wire().hex() for rdata in rrset.rdatas))
        for rrset in rrsets
    )


def _made(slots) -> list[str]:
    """The signatures these slots have made so far: which ones were
    made is query-driven state."""
    return [
        slot._made.to_wire().hex() for slot in slots
        if slot is not None and slot._made is not None
    ]


def served_state(fabric: NetworkFabric) -> dict[str, str]:
    """Digest of everything the registered servers serve *from*, minus
    counters: one entry per (endpoint, zone) over names, TTLs and
    rdatas, plus the wild universe's one lazy zone store (which child
    zones were built is query-driven state too), its delegation and
    answer memos, and the query-driven ``set`` of flipped zones.  Two
    arms that saw the same queries and only ever read this state leave
    it equal."""
    state: dict[str, str] = {}

    def put(key: str, rows: list[str]) -> None:
        state[key] = hashlib.sha256("\n".join(rows).encode()).hexdigest()

    for (address, _port), endpoint in zip(
        fabric.endpoints(), fabric.registered_endpoints()
    ):
        prefix = f"{address}#{type(endpoint).__name__}"
        server = getattr(endpoint, "inner", endpoint)
        if hasattr(server, "zones"):
            for zone in server.zones():
                put(f"{prefix} zone {zone.origin}", _rrset_rows(zone.all_rrsets()))
        if hasattr(endpoint, "_apex_zone"):
            # Built on first read, so *whether* it exists is query-driven
            # state too: an arm that built an apex the other did not differs.
            if endpoint._apex_zone is not None:
                put(f"{prefix} zone {endpoint.origin}",
                    _rrset_rows(endpoint._apex_zone.all_rrsets()))
            optout = endpoint.__dict__.get("_optout")
            if optout is not None:
                put(f"{prefix} memo optout", _rrset_rows([optout.rrset]) + _made([optout]))
        if hasattr(endpoint, "_seen"):
            put(f"{prefix} set _seen", sorted(map(str, endpoint._seen)))
        wild = getattr(endpoint, "wild", None)
        if wild is not None and "wild set built" not in state:
            put("wild set built", sorted(wild._zones))
            for zone in wild._zones.values():
                put(f"wild zone {zone.origin}", _rrset_rows(zone.all_rrsets()))
            for name, delegation in wild._delegations.items():
                put(f"wild memo delegation {name}",
                    _rrset_rows(delegation.rrsets()) + _made([delegation.ds_sig]))
    return state
