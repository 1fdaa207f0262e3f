"""Real UDP transport (asyncio) for fabric endpoints.

The simulated fabric is the primary substrate, but every endpoint in
this library is an :class:`~repro.net.endpoint.Endpoint` whose
``handle_datagram(wire, source) -> wire`` never raises, so any of them
— an authoritative server, a whole recursive resolver, the reporting
agent — can also be bound to an actual UDP socket.  This is
what the integration tests use to prove the wire format interoperates
with a genuine network stack, and what a user would use to point ``dig``
at the testbed.

``repro.net`` does not re-export this module, so a process that never
binds a socket never imports asyncio (or the ssl it pulls in).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from .endpoint import Endpoint

__all__ = ["UdpServer", "serve_and_query", "udp_query"]


class _EndpointProtocol(asyncio.DatagramProtocol):
    def __init__(self, endpoint: Endpoint):
        self._endpoint = endpoint
        self._transport: asyncio.DatagramTransport | None = None

    def connection_made(self, transport) -> None:  # pragma: no cover - trivial
        self._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        response = self._endpoint.handle_datagram(data, addr[0])
        if response is not None and self._transport is not None:
            self._transport.sendto(response, addr)


@dataclass
class UdpServer:
    """One endpoint bound to one UDP socket."""

    endpoint: Endpoint
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port
    _transport: asyncio.DatagramTransport | None = None

    async def start(self) -> tuple[str, int]:
        loop = asyncio.get_running_loop()
        self._transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _EndpointProtocol(self.endpoint),
            local_addr=(self.host, self.port),
        )
        sockname = self._transport.get_extra_info("sockname")
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class _ClientProtocol(asyncio.DatagramProtocol):
    def __init__(self):
        self.response: asyncio.Future[bytes] = asyncio.get_running_loop().create_future()

    def datagram_received(self, data: bytes, addr) -> None:
        if not self.response.done():
            self.response.set_result(data)

    def error_received(self, exc) -> None:  # pragma: no cover - rare
        if not self.response.done():
            self.response.set_exception(exc)


async def udp_query(
    wire: bytes, host: str, port: int, timeout: float = 2.0
) -> bytes:
    """Send one datagram and await the response (asyncio, real sockets)."""
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        _ClientProtocol, remote_addr=(host, port)
    )
    try:
        transport.sendto(wire)
        return await asyncio.wait_for(protocol.response, timeout)
    finally:
        transport.close()


def serve_and_query(endpoint: Endpoint, wires: list[bytes]) -> list[bytes]:
    """Synchronous helper: bind ``endpoint`` to a loopback socket, send
    each wire message, collect the responses, tear everything down."""

    async def run() -> list[bytes]:
        server = UdpServer(endpoint=endpoint)
        host, port = await server.start()
        try:
            return [await udp_query(wire, host, port) for wire in wires]
        finally:
            await server.stop()

    return asyncio.run(run())
