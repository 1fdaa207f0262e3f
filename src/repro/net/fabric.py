"""The simulated Internet: endpoints addressed by (ip, port).

A :class:`NetworkFabric` is a synchronous message switch.  A *send* to a
registered, routable endpoint invokes that endpoint's handler and
returns its response (subject to configured latency, loss, and the
endpoint's own scripted behaviour).  A send to an unregistered or
special-purpose address raises :class:`Unreachable` or :class:`Timeout`
— the two transport observables the resolver converts into
``SERVER_UNREACHABLE`` / ``SERVER_TIMEOUT`` events and, ultimately,
into the EDE codes of the paper's groups 6-7 and the wild scan's
*No Reachable Authority* / *Network Error* categories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..dns.rcode import Rcode
from ..dns.render import LazyWire, header_reply
from .addresses import is_globally_routable
from .chaos import ChaosAction, ChaosPolicy
from .clock import Clock, SimulatedClock
from .endpoint import Endpoint

DNS_PORT = 53


class TransportError(Exception):
    """Base class for fabric-level delivery failures."""


class Unreachable(TransportError):
    """No route to host (special-purpose or unknown address)."""


class Timeout(TransportError):
    """The peer never answered within the query timeout."""


@dataclass
class LinkProperties:
    """Per-endpoint delivery characteristics."""

    latency: float = 0.010  # seconds added to the clock per round trip
    loss_rate: float = 0.0  # fraction of datagrams silently dropped
    #: When True the endpoint is administratively down (always times out).
    down: bool = False
    #: Max extra per-delivery latency, uniform in [0, jitter].
    jitter: float = 0.0
    #: Scripted down-windows as (start, end) pairs in absolute
    #: virtual-clock seconds; the link times out while one is active.
    down_windows: tuple[tuple[float, float], ...] = ()

    def is_down(self, now: float) -> bool:
        if self.down:
            return True
        return any(start <= now < end for start, end in self.down_windows)


@dataclass
class FabricStats:
    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_lost: int = 0
    unreachable: int = 0
    timeouts: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    tcp_queries: int = 0


class NetworkFabric:
    """Synchronous in-process packet switch with a virtual clock."""

    def __init__(
        self,
        clock: Clock | None = None,
        seed: int = 20230524,
        chaos: ChaosPolicy | None = None,
    ):
        self.clock = clock or SimulatedClock()
        self._rng = random.Random(seed)
        self._endpoints: dict[tuple[str, int], Endpoint] = {}
        self._links: dict[tuple[str, int], LinkProperties] = {}
        self._route_filter: Callable[[str], bool] | None = None
        self.stats = FabricStats()
        self.chaos: ChaosPolicy | None = None
        if chaos is not None:
            self.install_chaos(chaos)

    def install_chaos(self, policy: ChaosPolicy) -> None:
        """Attach a fault schedule; its t=0 is the current virtual time."""
        policy.attach(self.clock)
        self.chaos = policy

    def remove_chaos(self) -> None:
        self.chaos = None

    # -- topology ------------------------------------------------------------

    def register(
        self,
        address: str,
        endpoint: Endpoint,
        port: int = DNS_PORT,
        link: LinkProperties | None = None,
    ) -> None:
        if not is_globally_routable(address):
            raise ValueError(
                f"{address} is a special-purpose address; nothing can be hosted there"
            )
        self._endpoints[(address, port)] = endpoint
        self._links[(address, port)] = link or LinkProperties()

    def unregister(self, address: str, port: int = DNS_PORT) -> None:
        self._endpoints.pop((address, port), None)
        self._links.pop((address, port), None)

    def link(self, address: str, port: int = DNS_PORT) -> LinkProperties:
        key = (address, port)
        if key not in self._links:
            raise KeyError(f"no endpoint at {address}:{port}")
        return self._links[key]

    def set_route_filter(self, predicate: Callable[[str], bool] | None) -> None:
        """Extra reachability policy (e.g. partition experiments)."""
        self._route_filter = predicate

    def endpoints(self) -> list[tuple[str, int]]:
        return sorted(self._endpoints)

    def registered_endpoints(self) -> list[Endpoint]:
        """Every registered endpoint object, in address order (the
        order :meth:`endpoints` lists their addresses in)."""
        return [self._endpoints[key] for key in sorted(self._endpoints)]

    # -- delivery ----------------------------------------------------------------

    def send(
        self,
        destination: str,
        wire: bytes | LazyWire,
        source: str = "192.0.2.0",
        port: int = DNS_PORT,
        timeout: float = 2.0,
        transport: str = "udp",
        message: object | None = None,
    ) -> bytes | LazyWire:
        """Round-trip one datagram and return the endpoint's reply wire;
        raises Unreachable/Timeout on failure.  The virtual clock
        advances either way: by the link latency, by ``timeout`` when
        unanswered, and one more latency for TCP's handshake.

        ``transport="tcp"`` takes the endpoint's ``handle_stream``.  A UDP
        send that carries ``message``, the sender's parsed ``wire``, is
        *paved* unless a chaos policy is installed: ``handle_paved``
        gets the Message, and its reply may be a
        :class:`~repro.dns.render.LazyWire` — read it with
        :func:`~repro.dns.render.read_reply`.  Every other send takes
        ``handle_datagram`` with ``bytes(wire)``.  Every count and delay
        takes ``len()``, so a paved send changes no observable.  A
        Message that crosses, alone or inside a ``LazyWire``, is
        read-only to both sides.
        """
        self.stats.datagrams_sent += 1
        if transport == "tcp":
            self.stats.tcp_queries += 1
        self.stats.bytes_sent += len(wire)

        if not is_globally_routable(destination) or (
            self._route_filter is not None and not self._route_filter(destination)
        ):
            self.stats.unreachable += 1
            # An ICMP "no route" comes back quickly; model a small delay.
            self.clock.advance(0.001)
            raise Unreachable(destination)

        endpoint = self._endpoints.get((destination, port))
        if endpoint is None:
            # Routable prefix but nothing listening: queries time out.
            self.stats.timeouts += 1
            self.clock.advance(timeout)
            raise Timeout(f"{destination}:{port}")

        link = self._links[(destination, port)]
        if link.is_down(self.clock.now()):
            self.stats.timeouts += 1
            self.clock.advance(timeout)
            raise Timeout(f"{destination}:{port}")

        decision = None
        if self.chaos is not None:
            decision = self.chaos.on_send(destination, self.clock.now())
            if decision.action is ChaosAction.DROP:
                self.stats.datagrams_lost += 1
                self.clock.advance(timeout)
                raise Timeout(f"{destination}:{port}")
            if decision.action is ChaosAction.REFUSE:
                self.clock.advance(link.latency)
                refused = header_reply(bytes(wire), Rcode.REFUSED)
                self.stats.datagrams_delivered += 1
                self.stats.bytes_received += len(refused)
                return refused
            if decision.extra_latency:
                self.clock.advance(decision.extra_latency)

        if link.loss_rate and self._rng.random() < link.loss_rate:
            self.stats.datagrams_lost += 1
            self.clock.advance(timeout)
            raise Timeout(f"{destination}:{port}")

        self.clock.advance(link.latency)
        if link.jitter:
            self.clock.advance(self._rng.random() * link.jitter)

        def deliver() -> bytes | LazyWire | None:
            if transport == "tcp":
                # TCP costs an extra round trip for the handshake.
                self.clock.advance(link.latency)
                return endpoint.handle_stream(bytes(wire), source)
            if message is not None and self.chaos is None:
                return endpoint.handle_paved(wire, source, message)
            return endpoint.handle_datagram(bytes(wire), source)

        response = deliver()
        if decision is not None and decision.duplicate:
            # The duplicated datagram also reaches the endpoint; the
            # sender only ever sees the second response.
            duplicate_response = deliver()
            if duplicate_response is not None:
                response = duplicate_response
        if response is not None and self.chaos is not None:
            response = self.chaos.on_response(destination, bytes(response))
        if response is None:
            self.stats.timeouts += 1
            self.clock.advance(timeout)
            raise Timeout(f"{destination}:{port}")
        self.stats.datagrams_delivered += 1
        self.stats.bytes_received += len(response)
        return response
