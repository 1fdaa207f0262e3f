"""Replicated authority topology: anycast-style replicas per tier.

Real root, TLD, and SLD operations serve each zone from many replica
addresses (the root alone has 13 letters and ~1700 anycast instances).
A resolver therefore has *choices* at every delegation step, and its
SRTT server book, lameness tracking, and per-server circuit breakers
only matter when those choices exist.  This module gives the testbed
that shape: each tier keeps ONE authoritative server instance (one
zone, one signing key set) exposed at several fabric addresses, each
address behind its own latency-class link.

Replica links carry *latency only* — never loss or jitter.  Loss and
jitter draw from the fabric RNG, which would make replica selection
perturb unrelated runs; a pure latency spread keeps every topology
fully deterministic while still giving the SRTT book a real gradient
to learn (metro replicas win, intercontinental ones lose).

Each address is wrapped in a :class:`ReplicaEndpoint` that counts the
queries it answered, so tests can assert *exact* per-replica query
distribution — e.g. that a blackholed replica received zero queries
while its siblings absorbed the load
(``tests/test_replicas.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dns.message import Message
from ..net.endpoint import Endpoint
from ..net.fabric import LinkProperties, NetworkFabric

#: Name -> one-way link latency in virtual seconds.  The spread matches
#: the classes a resolver actually observes: same-metro anycast site,
#: same-region unicast, cross-continent, and trans-oceanic paths.
LATENCY_CLASSES: dict[str, float] = {
    "metro": 0.002,
    "regional": 0.012,
    "continental": 0.035,
    "intercontinental": 0.080,
}

#: Deterministic class per replica index: the first replica of a tier is
#: always the close one, later replicas progressively farther away.
CLASS_ROTATION: tuple[str, ...] = (
    "metro",
    "regional",
    "continental",
    "intercontinental",
)

#: Public replica address pools per tier.  Index 0 of each pool is the
#: single-server address the unreplicated testbed has always used, so a
#: one-replica topology is address-compatible with the flat build.
ROOT_REPLICA_POOL: tuple[str, ...] = (
    "198.41.0.4",  # a.root-servers.net (the seed testbed's only root)
    "199.9.14.201",  # b.root-servers.net
    "192.33.4.12",  # c.root-servers.net
    "199.7.91.13",  # d.root-servers.net
)
COM_REPLICA_POOL: tuple[str, ...] = (
    "192.5.6.30",  # a.gtld-servers.net
    "192.33.14.30",  # b.gtld-servers.net
    "192.26.92.30",  # c.gtld-servers.net
)
PARENT_REPLICA_POOL: tuple[str, ...] = (
    "185.199.0.53",
    "185.199.1.53",
    "185.199.2.53",
)


@dataclass(frozen=True)
class ReplicaTopology:
    """How many replica addresses each authority tier exposes."""

    root: int = 3
    tld: int = 2
    sld: int = 2

    def __post_init__(self) -> None:
        for name, count, pool in (
            ("root", self.root, ROOT_REPLICA_POOL),
            ("tld", self.tld, COM_REPLICA_POOL),
            ("sld", self.sld, PARENT_REPLICA_POOL),
        ):
            if not 1 <= count <= len(pool):
                raise ValueError(
                    f"{name} replicas must be in 1..{len(pool)}, got {count}"
                )


def latency_class_for(index: int) -> str:
    """Deterministic latency class of the ``index``-th replica."""
    return CLASS_ROTATION[index % len(CLASS_ROTATION)]


class ReplicaEndpoint(Endpoint):
    """One public address of a replicated authority, with a query counter.

    All replicas of a tier share the underlying
    :class:`~repro.server.authoritative.AuthoritativeServer` (same zone,
    same keys — anycast replicas serve identical data).  The replica's
    own doors answer with the server's bodies, which it attributes to
    the address that received the query.
    """

    def __init__(self, server, address: str, latency_class: str):
        self.server = server
        self.address = address
        self.latency_class = latency_class
        self.queries = 0

    def handle_query(self, query: Message, source: str) -> Message | None:
        self.queries += 1
        return self.server.handle_query(query, source)

    def handle_axfr(self, query: Message, source: str) -> Message | None:
        self.queries += 1
        return self.server.handle_axfr(query, source)


@dataclass
class ReplicaSet:
    """The deployed replicas of one authority tier."""

    tier: str
    addresses: tuple[str, ...]
    endpoints: dict[str, ReplicaEndpoint] = field(default_factory=dict)

    def query_counts(self) -> dict[str, int]:
        """Exact count of answered queries per replica address."""
        return {
            address: self.endpoints[address].queries
            for address in self.addresses
        }


def register_replicas(
    fabric: NetworkFabric,
    tier: str,
    addresses: list[str] | tuple[str, ...],
    server,
) -> ReplicaSet:
    """Expose ``server`` at every address, each behind its class link."""
    replica_set = ReplicaSet(tier=tier, addresses=tuple(addresses))
    for index, address in enumerate(addresses):
        latency_class = latency_class_for(index)
        endpoint = ReplicaEndpoint(server, address, latency_class)
        fabric.register(
            address,
            endpoint,
            link=LinkProperties(latency=LATENCY_CLASSES[latency_class]),
        )
        replica_set.endpoints[address] = endpoint
    return replica_set
