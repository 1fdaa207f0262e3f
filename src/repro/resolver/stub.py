"""Stub resolver: the client side of the paper's measurements.

Sends recursive queries to a resolver endpoint over the fabric (the way
the paper's scanner queried 1.1.1.1) and decodes the response into a
compact :class:`StubAnswer` carrying the RCODE, addresses, and EDE
options — the exact fields the scan records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..dns.ede import ExtendedError
from ..dns.exceptions import DnsError
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.render import LazyWire, read_reply
from ..dns.types import RdataType
from ..net.fabric import NetworkFabric, TransportError


@dataclass
class StubAnswer:
    """Decoded response as a measurement record."""

    qname: str
    rdtype: str
    rcode: int | None = None  # None when the resolver itself was unreachable
    addresses: list[str] = field(default_factory=list)
    ede: list[ExtendedError] = field(default_factory=list)
    ad: bool = False
    transport_error: str = ""  # "timeout", "unreachable" or "badreply"

    @property
    def ede_codes(self) -> tuple[int, ...]:
        return tuple(sorted({option.info_code for option in self.ede}))

    @property
    def ok(self) -> bool:
        return self.rcode == Rcode.NOERROR

    def to_record(self) -> dict:
        """NDJSON-style record, mirroring zdns output fields."""
        return {
            "name": self.qname,
            "type": self.rdtype,
            "rcode": Rcode(self.rcode).name if self.rcode is not None else None,
            "answers": list(self.addresses),
            "ede": [
                {"info_code": option.info_code, "extra_text": option.extra_text}
                for option in self.ede
            ],
            "ad": self.ad,
            "error": self.transport_error,
        }


class StubResolver:
    """Client that queries one recursive resolver over the fabric."""

    def __init__(
        self,
        fabric: NetworkFabric,
        server_address: str,
        source_ip: str = "203.0.113.99",
        timeout: float = 5.0,
        rng_seed: int = 0x5707,
    ):
        self.fabric = fabric
        self.server_address = server_address
        self.source_ip = source_ip
        self.timeout = timeout
        self._rng = random.Random(rng_seed)

    def query(
        self,
        qname: Name | str,
        rdtype: RdataType | str = RdataType.A,
        want_dnssec: bool = False,
    ) -> StubAnswer:
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        rdtype = RdataType.make(rdtype)
        answer = StubAnswer(qname=str(qname), rdtype=str(rdtype))
        query = Message.make_query(qname, rdtype, want_dnssec=want_dnssec, rng=self._rng)
        try:
            response = self._exchange(query, "udp")
            if response is not None and response.tc:
                # Truncated: ask again over TCP (RFC 7766), never truncated.
                response = self._exchange(query, "tcp")
        except TransportError as exc:
            answer.transport_error = type(exc).__name__.lower()
            return answer
        if response is None:
            answer.transport_error = "badreply"
            return answer
        answer.rcode = response.rcode
        answer.ad = response.ad
        answer.ede = list(response.extended_errors)
        for rrset in response.answer:
            if rrset.match(qname, rdtype) or rrset.rdtype == rdtype:
                for rdata in rrset.rdatas:
                    address = getattr(rdata, "address", None)
                    if address is not None:
                        answer.addresses.append(address)
        return answer

    def _exchange(self, query: Message, transport: str) -> Message | None:
        """The resolver's reply to ``query``, or None when what came back
        does not parse or is the reply to another query."""
        raw = self.fabric.send(
            self.server_address, LazyWire(query), source=self.source_ip,
            timeout=self.timeout, transport=transport, message=query,
        )
        try:
            response = read_reply(raw)
        except DnsError:
            return None
        return response if response.is_reply_to(query) else None
