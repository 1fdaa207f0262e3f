"""Replica-selection regressions on the replicated-authority testbed.

Builds the testbed with multi-replica root/TLD/SLD tiers, blackholes
one root replica through the chaos fabric, and pins the resolver's
reaction: the SRTT server book converges onto the healthy replicas,
the circuit breaker opens for the dead replica only, and the
per-replica datagram counters prove the blackholed address never
received a query (the fabric drops them before delivery) while its
siblings absorbed the load — deterministically, run after run.
"""

from __future__ import annotations

import pytest

from repro.dns.types import RdataType
from repro.net.chaos import ChaosPolicy, Outage
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.resilience import BreakerConfig, ResilienceConfig
from repro.testbed.infra import PARENT_NAME, build_testbed
from repro.testbed.replicas import (
    LATENCY_CLASSES,
    ReplicaTopology,
    latency_class_for,
)
from repro.testbed.subdomains import ALL_CASES

#: A small case set is enough: replica selection happens on the path to
#: every child, not inside the per-case mutations.
CASES = ALL_CASES[:8]


def make_resolver(testbed, breaker: bool = True):
    resilience = None
    if breaker:
        resilience = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=2, cooldown=300.0)
        )
    return RecursiveResolver(
        fabric=testbed.fabric,
        profile=CLOUDFLARE,
        root_hints=testbed.root_hints,
        trust_anchors=testbed.trust_anchors,
        resilience=resilience,
    )


def sweep(resolver, testbed) -> dict[str, tuple[int, tuple[int, ...]]]:
    out = {}
    for label, deployed in testbed.cases.items():
        resolver.flush_caches()
        response = resolver.resolve(
            deployed.query_name, RdataType.A, want_dnssec=False
        )
        out[label] = (int(response.rcode), response.ede_codes)
    return out


class TestTopologyShape:
    def test_replica_sets_deployed_with_latency_classes(self):
        testbed = build_testbed(
            cases=CASES, topology=ReplicaTopology(root=3, tld=2, sld=2)
        )
        assert set(testbed.replicas) == {"root", "com", "parent"}
        assert len(testbed.root_hints) == 3
        root = testbed.replicas["root"]
        assert root.addresses == tuple(testbed.root_hints)
        for index, address in enumerate(root.addresses):
            endpoint = root.endpoints[address]
            assert endpoint.latency_class == latency_class_for(index)
            assert endpoint.latency_class in LATENCY_CLASSES

    def test_topology_bounds_validated(self):
        with pytest.raises(ValueError):
            ReplicaTopology(root=0)
        with pytest.raises(ValueError):
            ReplicaTopology(root=99)

    def test_categorization_matches_flat_testbed(self):
        flat = build_testbed(cases=CASES)
        replicated = build_testbed(cases=CASES, topology=ReplicaTopology())
        assert sweep(make_resolver(flat, breaker=False), flat) == sweep(
            make_resolver(replicated, breaker=False), replicated
        )


class TestTruncationRetry:
    def test_tcp_retry_reaches_the_untruncated_path(self):
        """RFC 7766: the parent's DNSKEY answer does not fit 512 octets,
        so the engine retries over TCP — and a replica must forward
        that to the server's stream path, not truncate it again."""
        testbed = build_testbed(
            cases=CASES, topology=ReplicaTopology(root=3, tld=2, sld=2)
        )
        parent = testbed.replicas["parent"]
        asked, idle = parent.addresses
        engine = IterativeEngine(
            testbed.fabric, testbed.root_hints, EngineConfig(payload=512)
        )
        response = engine.query_server(asked, PARENT_NAME, RdataType.DNSKEY, [])
        assert engine.stats.tcp_fallbacks == 1
        assert response is not None and not response.tc
        assert [r.rdtype for r in response.answer] == [RdataType.DNSKEY, RdataType.RRSIG]
        assert list(response.answer[0]) == list(
            testbed.parent_built.zone.find(PARENT_NAME, RdataType.DNSKEY)
        )
        # One UDP datagram and its one TCP retry, both counted where they landed.
        assert parent.query_counts() == {asked: 2, idle: 0}
        assert testbed.fabric.stats.tcp_queries == 1


class TestBlackholedRootReplica:
    @staticmethod
    def run_outage(queries: int = 3):
        """Fresh replicated world with root replica #0 blackholed."""
        testbed = build_testbed(
            cases=CASES, topology=ReplicaTopology(root=3, tld=2, sld=2)
        )
        dead = testbed.root_hints[0]
        testbed.fabric.install_chaos(
            ChaosPolicy(
                seed=1,
                outages=[Outage(0.0, 10**9, target=frozenset([dead]).__contains__)],
            )
        )
        resolver = make_resolver(testbed)
        results = [sweep(resolver, testbed) for _ in range(queries)]
        return testbed, resolver, dead, results

    def test_resolution_survives_and_converges(self):
        testbed, resolver, dead, results = self.run_outage()
        # Every case still resolves to its flat-testbed categorization.
        flat = build_testbed(cases=CASES)
        expected = sweep(make_resolver(flat, breaker=False), flat)
        assert results[-1] == expected

        counts = testbed.replicas["root"].query_counts()
        # The fabric blackholes the dead replica: zero datagrams ever
        # reached its endpoint, and the healthy tier absorbed the whole
        # root load.  (SRTT selection converges on the *closest* healthy
        # replica, so the farther one may legitimately stay idle.)
        assert counts[dead] == 0
        healthy = [addr for addr in counts if addr != dead]
        assert sum(counts[addr] for addr in healthy) > 0
        preferred = testbed.root_hints[1]  # next-closest after the dead one
        assert counts[preferred] > 0

        # The server book learned: both healthy replicas now rank ahead
        # of the blackholed one.
        order = resolver.engine.server_stats.order(list(counts))
        assert order.index(dead) == len(order) - 1

    def test_breaker_opens_only_for_the_dead_replica(self):
        testbed, resolver, dead, _results = self.run_outage()
        open_keys = set(resolver.engine.breakers.open_keys())
        assert dead in open_keys
        healthy = set(testbed.replicas["root"].addresses) - {dead}
        assert not (open_keys & healthy)
        # No healthy replica of any tier tripped its breaker either.
        for tier in ("com", "parent"):
            assert not (open_keys & set(testbed.replicas[tier].addresses))

    def test_per_replica_counters_are_deterministic(self):
        """Exact counters, pinned by running the whole drill twice."""
        _tb1, _r1, dead1, _ = self.run_outage()
        testbed1, _res1, _d1, _ = self.run_outage()
        testbed2, _res2, _d2, _ = self.run_outage()
        first = {
            tier: replica_set.query_counts()
            for tier, replica_set in testbed1.replicas.items()
        }
        second = {
            tier: replica_set.query_counts()
            for tier, replica_set in testbed2.replicas.items()
        }
        assert first == second
        assert first["root"][dead1] == 0
