"""Deploying the testbed: root, ``com``, ``extended-dns-errors.com``,
and its 63 misconfigured children, onto a fabric.

The layout mirrors the paper's infrastructure: a correctly configured
and signed parent (``extended-dns-errors.com``), one child zone per
case — each on its own nameserver address — and delegations whose DS
and glue records carry the per-case mutations.  Vendor resolvers are
attached to the same fabric afterwards (see :mod:`repro.testbed.runner`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..dns.dnssec_records import DS
from ..dns.name import Name
from ..dns.rdata import A, NS
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.ds import make_ds
from ..dnssec.rsa import search_keypairs
from ..net.fabric import NetworkFabric
from ..server.acl import Acl
from ..server.authoritative import AuthoritativeServer
from ..zones.builder import BuiltZone, ZoneBuilder, address_rrset
from ..zones.mutations import VALID, ZoneMutation
from .replicas import (
    COM_REPLICA_POOL,
    PARENT_REPLICA_POOL,
    ROOT_REPLICA_POOL,
    ReplicaSet,
    ReplicaTopology,
    register_replicas,
)
from .subdomains import ALL_CASES, TestbedCase

#: The flat build's one address per tier: the head of each replica pool.
ROOT_SERVER = ROOT_REPLICA_POOL[0]
COM_SERVER = COM_REPLICA_POOL[0]
PARENT_SERVER = PARENT_REPLICA_POOL[0]

PARENT_NAME = Name.from_text("extended-dns-errors.com.")
COM_NAME = Name.from_text("com.")
ROOT_NAME = Name.root()


def child_server_address(index: int) -> str:
    """Deterministic public address for the i-th child nameserver."""
    return f"185.199.{1 + index // 200}.{1 + index % 200}"


@dataclass
class DeployedCase:
    case: TestbedCase
    zone_name: Name
    server_address: str
    built: BuiltZone | None  # None when nothing is hosted (bad glue)
    query_name: Name = field(init=False)

    def __post_init__(self) -> None:
        if self.case.query_nonexistent:
            self.query_name = Name.from_text("nx", origin=self.zone_name)
        else:
            self.query_name = self.zone_name


@dataclass
class Testbed:
    """Everything the runner needs to drive the measurements."""

    fabric: NetworkFabric
    root_hints: list[str]
    trust_anchors: list[DS]
    cases: dict[str, DeployedCase]
    parent_built: BuiltZone
    root_built: BuiltZone
    com_built: BuiltZone
    #: tier name ("root" | "com" | "parent") -> deployed replica set;
    #: empty for the classic single-server-per-tier build.
    replicas: dict[str, ReplicaSet] = field(default_factory=dict)


def _ns_hosts(origin: Name, addresses) -> list[tuple[Name, str]]:
    """``(nameserver name, address)`` per address: ``ns1``, ``ns2``, …"""
    return [
        (Name.from_text(f"ns{index}", origin=origin), address)
        for index, address in enumerate(addresses, start=1)
    ]


def _apex_records(builder: ZoneBuilder, hosts: list[tuple[Name, str]]) -> None:
    """Apex NS/A set plus the address of every nameserver host."""
    origin = builder.origin
    for ns_name, _address in hosts:
        builder.add(RRset.of(origin, RdataType.NS, NS(target=ns_name), ttl=300))
    builder.add(RRset.of(origin, RdataType.A, A(address="93.184.216.34"), ttl=300))
    for ns_name, address in hosts:
        builder.add(address_rrset(ns_name, address))
    builder.ensure_soa()


def _register_bare(fabric: NetworkFabric, tier: str, addresses, server) -> None:
    """The flat build's exposure: one address, no replica wrapper."""
    fabric.register(addresses[0], server)


def build_testbed(
    fabric: NetworkFabric | None = None,
    cases: tuple[TestbedCase, ...] = ALL_CASES,
    now: int | None = None,
    key_bits: int = 1024,
    topology: ReplicaTopology | None = None,
) -> Testbed:
    """Build and wire up the whole testbed; returns the deployment handle.

    ``topology`` replicates the root/``com``/parent tiers: each tier's
    single authoritative server is exposed at several addresses behind
    per-class latency links (see :mod:`repro.testbed.replicas`), the
    zones publish one ``ns{i}``/glue pair per replica, and
    ``root_hints`` lists every root replica.  ``None`` (the default)
    builds the classic flat testbed, byte-for-byte unchanged.
    """
    fabric = fabric or NetworkFabric()
    now = int(fabric.clock.now()) if now is None else now

    def new_builder(
        origin: Name, key_seed: int, mutation: ZoneMutation = VALID
    ) -> ZoneBuilder:
        return ZoneBuilder(
            origin,
            now=now,
            mutation=dataclasses.replace(mutation, key_bits=key_bits),
            key_seed=key_seed,
        )

    # Flat and replicated builds part here and only in data: how many
    # pool addresses answer for a tier, how its server goes on the
    # fabric, and the name the root knows com's server by (the flat
    # build's historical single "ns.com." host, kept verbatim so the
    # unreplicated zones stay byte-identical).
    (n_parent, n_com, n_root), expose, known_above_as = (
        ((1, 1, 1), _register_bare, {COM_NAME: [(Name.from_text("ns.com."), COM_SERVER)]})
        if topology is None
        else ((topology.sld, topology.tld, topology.root), register_replicas, {})
    )
    #: Leaf first — each tier delegates to the one built before it.
    tiers = (
        ("parent", PARENT_NAME, 3, "ns1.extended-dns-errors.com",
         PARENT_REPLICA_POOL[:n_parent]),
        ("com", COM_NAME, 2, "ns.com", COM_REPLICA_POOL[:n_com]),
        ("root", ROOT_NAME, 1, "a.root-servers.net", ROOT_REPLICA_POOL[:n_root]),
    )

    children = [
        new_builder(Name.from_text(case.label, origin=PARENT_NAME), 1000 + index, case.mutation)
        for index, case in enumerate(cases)
    ]
    tier_builders = [new_builder(origin, key_seed) for _tier, origin, key_seed, *_ in tiers]
    # Every RSA key the zones below ask for, found at once before any is built.
    search_keypairs(set().union(
        *(builder.rsa_key_requests() for builder in [*children, *tier_builders])
    ))

    deployed: dict[str, DeployedCase] = {}
    #: What the next tier up must delegate: (zone builder, its hosts).
    below: list[tuple[ZoneBuilder, list[tuple[Name, str]]]] = []

    for index, (case, child) in enumerate(zip(cases, children)):
        zone_name = child.origin
        address = child_server_address(index)
        mutation = case.mutation
        built: BuiltZone | None = None
        # Bad-glue cases delegate into a special-purpose prefix, so no
        # server exists to host the (unsigned) child zone at all.
        if mutation.glue_override is None:
            _apex_records(child, _ns_hosts(zone_name, [address]))
            built = child.build()
            server = AuthoritativeServer(
                name=f"ns1.{zone_name}", acl=Acl.from_keyword(mutation.acl)
            )
            server.add_zone(built.zone)
            fabric.register(address, server)
        below.append(
            (child, _ns_hosts(zone_name, [mutation.glue_override or address]))
        )
        deployed[case.label] = DeployedCase(
            case=case, zone_name=zone_name, server_address=address, built=built
        )

    zones: dict[str, BuiltZone] = {}
    replicas: dict[str, ReplicaSet] = {}
    for (tier, origin, _key_seed, server_name, addresses), builder in zip(tiers, tier_builders):
        hosts = _ns_hosts(origin, addresses)
        _apex_records(builder, hosts)
        for child, child_hosts in below:
            builder.delegate(child, child_hosts)
        zones[tier] = builder.build()
        server = AuthoritativeServer(name=server_name)
        server.add_zone(zones[tier].zone)
        replica_set = expose(fabric, tier, addresses, server)
        if replica_set is not None:
            replicas[tier] = replica_set
        below = [(builder, known_above_as.get(origin, hosts))]

    root_ksk = zones["root"].ksk
    assert root_ksk is not None
    return Testbed(
        fabric=fabric,
        root_hints=list(ROOT_REPLICA_POOL[:n_root]),
        trust_anchors=[make_ds(ROOT_NAME, root_ksk.dnskey(), 2)],
        cases=deployed,
        parent_built=zones["parent"],
        root_built=zones["root"],
        com_built=zones["com"],
        replicas=replicas,
    )
