"""Cluster failover integration: health-gated ring membership.

A crashed shard must be noticed (consecutive dispatch failures),
ejected (its key range reroutes to ring successors), blackholed (it
receives *zero* datagrams while ejected), and recovered (cooldown, one
half-open probe, rejoin restores the exact pre-fault routing).  The
whole sequence runs on the virtual clock from a seeded fault schedule,
so it replays byte-identically — and with no faults installed the
dispatch path must degenerate to the PR 8 router.

The drill runs twice: walked sequentially through ``cluster.resolve``,
and with the scan driving it *through the lane pool* under two
retry-jitter seeds, where the crash must not move a single per-domain
categorization off the fault-free sequential baseline.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ResolverCluster,
    ShardChaosPolicy,
    ShardHealthConfig,
    ShardHealthState,
    SharedL2Cache,
    seeded_single_crash,
)
from repro.cluster.cluster import _ShardL2View
from repro.net.clock import SimulatedClock
from repro.obs import Observability
from repro.resolver.iterative import EngineConfig
from repro.resolver.profiles import CLOUDFLARE
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import WildInternet

SHARDS = 4
HEALTH = ShardHealthConfig(failure_threshold=3, cooldown=20.0)


@pytest.fixture(scope="module")
def population():
    return generate_population(population_config_for(120))


def build_cluster(population, obs=None, health=HEALTH):
    wild = WildInternet(population)
    cluster = ResolverCluster(
        fabric=wild.fabric,
        profile=CLOUDFLARE,
        root_hints=wild.root_hints,
        trust_anchors=wild.trust_anchors,
        config=ClusterConfig(shards=SHARDS, health=health),
        obs=obs,
    )
    return wild, cluster


def names_homed_on(cluster, population, index):
    return [
        domain.name
        for domain in population.domains
        if cluster.shard_index_for(domain.name) == index
    ]


def run_drill(population, obs=None):
    """Warm -> crash -> detect/eject -> cooldown -> probe/rejoin.

    Returns the cluster plus the facts the assertions (and the
    determinism replay test) care about.
    """
    wild, cluster = build_cluster(population, obs=obs)
    clock = wild.fabric.clock
    all_names = [domain.name for domain in population.domains]

    for name in all_names:
        cluster.resolve(name)
    pre_routing = cluster.routing_snapshot(all_names)

    policy = ShardChaosPolicy(seed=11)
    victim = policy.rng.randrange(SHARDS)
    policy.crash(victim, at=clock.now())
    cluster.install_shard_chaos(policy)
    victim_queries_at_crash = cluster.shards[victim].stats.queries

    answered = 0
    for name in all_names:
        if cluster.resolve(name) is not None:
            answered += 1
    assert answered == len(all_names)

    facts_mid = {
        "state": cluster.health.state_of(victim).value,
        "ejections": cluster.health.stats.ejections,
        "failover_routed": list(cluster.cluster_stats.failover_routed),
        "victim_frozen": (
            cluster.shards[victim].stats.queries == victim_queries_at_crash
        ),
        "blackhole": cluster.datagrams_while_ejected(victim),
    }

    policy.restart(victim, at=clock.now(), cold_cache=True)
    clock.advance(HEALTH.cooldown + 1.0)
    for name in all_names:
        cluster.resolve(name)

    facts_end = {
        "state": cluster.health.state_of(victim).value,
        "probe_successes": cluster.health.stats.probe_successes,
        "recoveries": cluster.health.stats.recoveries,
        "routing_restored": cluster.routing_snapshot(all_names)
        == pre_routing,
        "blackhole": cluster.datagrams_while_ejected(victim),
        "owner_flushed": cluster.l2.stats.owner_flushed,
        "routed": list(cluster.cluster_stats.routed),
        "failover_routed": list(cluster.cluster_stats.failover_routed),
    }
    return cluster, victim, facts_mid, facts_end


class TestCrashDrill:
    @pytest.fixture(scope="class")
    def drill(self, population):
        return run_drill(population)

    def test_victim_is_ejected_and_its_range_rerouted(self, drill):
        _cluster, victim, mid, _end = drill
        assert mid["state"] == "ejected"
        assert mid["ejections"] == 1
        assert mid["failover_routed"][victim] > 0

    def test_every_in_window_query_is_answered(self, drill):
        # run_drill asserts answered == total; reaching here means no
        # query raised or returned None while the victim was down.
        assert drill is not None

    def test_ejected_shard_receives_exactly_zero_datagrams(self, drill):
        _cluster, _victim, mid, end = drill
        assert mid["victim_frozen"] is True
        assert mid["blackhole"] == 0
        assert end["blackhole"] == 0

    def test_probe_rejoins_and_restores_routing(self, drill):
        _cluster, _victim, _mid, end = drill
        assert end["state"] == "healthy"
        assert end["probe_successes"] == 1
        assert end["recoveries"] == 1
        assert end["routing_restored"] is True

    def test_cold_restart_flushed_l2_publications(self, drill):
        cluster, _victim, _mid, end = drill
        assert cluster.l2 is not None
        assert end["owner_flushed"] > 0

    def test_drill_replays_byte_identically(self, population, drill):
        """Same seeds, same universe: every counter identical."""
        _c1, victim1, mid1, end1 = drill
        _c2, victim2, mid2, end2 = run_drill(population)
        assert victim2 == victim1
        assert mid2 == mid1
        assert end2 == end1

    def test_failover_metrics_ride_off_path(self, population, drill):
        """obs-on drill == NULL_OBS drill, and the series exist."""
        _c1, victim1, mid1, end1 = drill
        wild = WildInternet(population)
        obs = Observability(clock=wild.fabric.clock)
        # Fresh universe for the observed run (the fixture's wild is
        # already warmed): rebuild from scratch inside run_drill.
        _c2, victim2, mid2, end2 = run_drill(population, obs=obs)
        assert (victim2, mid2, end2) == (victim1, mid1, end1)
        snapshot = obs.registry.snapshot()
        families = {f["name"]: f for f in snapshot["metrics"]}
        ejections = sum(
            s["value"]
            for s in families["repro_cluster_ejections_total"]["series"]
        )
        assert ejections == 1
        failover = sum(
            s["value"]
            for s in families["repro_cluster_failover_routed_total"]["series"]
        )
        assert failover == sum(end1["failover_routed"])
        probe_series = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in families["repro_cluster_probe_total"]["series"]
        }
        assert probe_series.get((("outcome", "ok"),)) == 1


#: The retry-jitter seeds the scan-side drill sweeps.
JITTER_SEEDS = (1, 20230524)


def faulted_scan(population, jitter_seed):
    """One 8-lane cluster scan with a seeded victim crash mid-scan.

    The fault window is tuned to the scan's virtual timeline: crash at
    0.3 s, cold restart at 0.9 s, 0.25 s cooldown, so the whole
    crash-eject-restart-probe-rejoin sequence completes inside the
    single-phase sweep (~5 virtual seconds at 200 domains), *before*
    the two-phase stale/cached-error tail — a rejoin that lands
    mid-``stale_prime`` would reroute a prime to a ring successor and
    change a stale domain's categorization.

    Returns ``(categorization, facts)``.
    """
    wild = WildInternet(population)
    scanner = WildScanner(
        wild,
        cluster_config=ClusterConfig(
            shards=SHARDS,
            health=ShardHealthConfig(failure_threshold=3, cooldown=0.25),
        ),
        engine_config=EngineConfig(rng_seed=jitter_seed),
    )
    cluster = scanner.resolver
    probe_names = [domain.name for domain in population.domains[:256]]
    pre_routing = cluster.routing_snapshot(probe_names)
    plan = seeded_single_crash(
        population.config.seed,
        SHARDS,
        clock=wild.fabric.clock,
        crash_after=0.3,
        restart_after=0.9,
    )
    cluster.install_shard_chaos(plan.policy)
    result = scanner.scan(workers=8, use_lanes=True)
    facts = {
        "victim": plan.victim,
        "ejections": cluster.health.stats.ejections,
        "recoveries": cluster.health.stats.recoveries,
        "probe_successes": cluster.health.stats.probe_successes,
        "probe_failures": cluster.health.stats.probe_failures,
        "victim_state": cluster.health.state_of(plan.victim).value,
        "datagrams_while_ejected": cluster.datagrams_while_ejected(plan.victim),
        "failover_routed": cluster.cluster_stats.failover_total,
        "routing_restored": cluster.routing_snapshot(probe_names) == pre_routing,
        "l2_owner_flushed": cluster.l2.stats.owner_flushed,
    }
    return categorization_of(result), facts


class TestScanSideDrill:
    @pytest.fixture(scope="class")
    def scan_population(self):
        return generate_population(population_config_for(200))

    @pytest.fixture(scope="class")
    def baseline(self, scan_population, sanitizer_if_requested):
        """Fault-free, single resolver, plain sequential loop."""
        scanner = WildScanner(WildInternet(scan_population))
        with sanitizer_if_requested():
            return categorization_of(scanner.scan(workers=1, use_lanes=False))

    @pytest.fixture(scope="class")
    def runs(self, scan_population, sanitizer_if_requested):
        with sanitizer_if_requested():
            return [faulted_scan(scan_population, seed) for seed in JITTER_SEEDS]

    def test_categorization_identical_to_fault_free_baseline(self, baseline, runs):
        # Zero comparisons must not pass: both seeds ran, on real records.
        assert len(runs) >= 2 and len(baseline) >= 200
        for categorization, _facts in runs:
            assert categorization == baseline

    def test_victim_ejected_blackholed_rejoined_routing_restored(self, runs):
        _categorization, facts = runs[0]
        assert facts["ejections"] >= 1 and facts["failover_routed"] > 0
        assert facts["datagrams_while_ejected"] == 0
        assert facts["victim_state"] == "healthy"
        assert facts["probe_successes"] >= 1 and facts["recoveries"] >= 1
        assert facts["routing_restored"] is True

    def test_both_jitter_seeds_agree_on_every_fact(self, runs):
        assert all(run == runs[0] for run in runs[1:])


class TestParseFallback:
    def test_garbage_goes_to_first_healthy_shard(self, population):
        """Satellite: an ejected shard 0 must not receive the parse
        fallback; unparseable datagrams go to the first healthy shard
        and never raise."""
        wild, cluster = build_cluster(population)
        clock = wild.fabric.clock
        policy = ShardChaosPolicy()
        policy.crash(0, at=clock.now())
        cluster.install_shard_chaos(policy)
        # Drive shard 0 to ejection via its own key range.
        for name in names_homed_on(cluster, population, 0):
            cluster.resolve(name)
        assert cluster.health.state_of(0) is ShardHealthState.EJECTED
        before = [shard.stats.queries for shard in cluster.shards]
        result = cluster.handle_datagram(b"\x12\x34garbage", "203.0.113.9")
        assert cluster.cluster_stats.parse_fallbacks == 1
        after = [shard.stats.queries for shard in cluster.shards]
        assert after[0] == before[0], "ejected shard 0 saw the fallback"
        del result  # FORMERR wire or None; the contract is no raise

    def test_garbage_still_lands_on_shard_zero_when_healthy(self, population):
        wild, cluster = build_cluster(population)
        del wild
        response = cluster.handle_datagram(b"\x00\x01", "203.0.113.9")
        assert cluster.cluster_stats.parse_fallbacks == 1
        del response

    def test_whole_cluster_outage_drops_instead_of_raising(self, population):
        wild, cluster = build_cluster(population)
        clock = wild.fabric.clock
        policy = ShardChaosPolicy()
        for index in range(SHARDS):
            policy.crash(index, at=clock.now())
        cluster.install_shard_chaos(policy)
        name = population.domains[0].name
        assert cluster.handle_datagram(b"\xde\xad", "198.51.100.1") is None
        with pytest.raises(LookupError):
            cluster.resolve(name)
        assert cluster.cluster_stats.unroutable > 0


class TestSharedL2Expiry:
    """Satellite: the L2 never serves expired entries and prefers
    purging them over evicting live ones."""

    def test_expired_entry_refused_even_before_eviction(self):
        clock = SimulatedClock()
        l2 = SharedL2Cache(clock, capacity=8)
        l2.put(("zone", "name", 1), "payload", clock.now() + 10.0)
        assert l2.get(("zone", "name", 1)) == ("payload", clock.now() + 10.0)
        clock.advance(10.5)
        assert l2.get(("zone", "name", 1)) is None
        assert l2.stats.expired == 1
        assert len(l2) == 0

    def test_eviction_purges_expired_before_live(self):
        clock = SimulatedClock()
        l2 = SharedL2Cache(clock, capacity=2)
        l2.put(("a",), "a", clock.now() + 5.0)
        l2.put(("b",), "b", clock.now() + 500.0)
        clock.advance(6.0)  # ("a",) is now expired but not evicted
        l2.put(("c",), "c", clock.now() + 500.0)
        assert l2.stats.evictions == 0, "live entry evicted over expired"
        assert l2.stats.expired == 1
        assert l2.get(("b",)) is not None
        assert l2.get(("c",)) is not None

    def test_live_fifo_eviction_still_bounds_the_cache(self):
        clock = SimulatedClock()
        l2 = SharedL2Cache(clock, capacity=2)
        l2.put(("a",), "a", clock.now() + 500.0)
        l2.put(("b",), "b", clock.now() + 500.0)
        l2.put(("c",), "c", clock.now() + 500.0)
        assert len(l2) == 2
        assert l2.stats.evictions == 1
        assert l2.get(("a",)) is None  # the oldest fell out

    def test_flush_owner_drops_only_that_shards_entries(self):
        clock = SimulatedClock()
        l2 = SharedL2Cache(clock, capacity=8)
        view0, view1 = _ShardL2View(l2, 0), _ShardL2View(l2, 1)
        view0.put(("a",), "a", clock.now() + 500.0)
        view1.put(("b",), "b", clock.now() + 500.0)
        view0.put(("c",), "c", clock.now() + 500.0)
        assert l2.flush_owner(0) == 2
        assert l2.stats.owner_flushed == 2
        assert l2.get(("a",)) is None
        assert l2.get(("c",)) is None
        assert l2.get(("b",)) == ("b", clock.now() + 500.0)
