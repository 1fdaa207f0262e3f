"""Scan-engine benchmark runner (``python -m repro.bench``).

Establishes the repo's perf baseline for the paper's Section 4 pipeline:
sequential vs concurrent scans over seeded populations, reporting
virtual-time throughput (domains per *virtual* second, the simulated
analogue of zdns's resolutions/sec), message volume, cache-hit and
coalesce rates — and asserting that the concurrent scan's per-domain
EDE categorization is identical to the sequential baseline, which is
the property the whole reproduction rests on.

``--scale N`` is the *target domain count* (200 for the CI smoke run,
1 000/10 000 for the committed ``BENCH_scan.json``); it maps to the
population's 1:k sampling scale internally.  All throughput numbers are
virtual-clock and therefore deterministic per seed; wall-clock seconds
are recorded alongside as an operator hint only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..cluster import ClusterConfig, ShardHealthConfig, seeded_single_crash
from ..resolver.iterative import EngineConfig
from ..scan.population import (
    NOMINAL_TOTAL_DOMAINS,
    Population,
    PopulationConfig,
    generate_population,
)
from ..scan.scanner import ScanResult, WildScanner
from ..scan.wild import WildInternet

DEFAULT_SEED = 20230524
SCHEMA = "repro-bench-scan/v1"


@dataclass
class BenchRun:
    """One scan configuration's measurements."""

    mode: str  # "sequential" or "lanes"
    workers: int
    #: Resolver shards the scan ran against (1 = single resolver).
    shards: int
    domains: int
    duration_virtual_s: float
    ttl_wait_s: float
    active_virtual_s: float
    domains_per_virtual_s: float
    messages: int
    messages_per_domain: float
    cache_hit_rate: float
    infra_hit_rate: float
    coalesced: int
    coalesce_rate: float
    wall_s: float
    #: canonical per-domain categorization for divergence checks:
    #: name -> (rcode, ede codes, extra texts, error)
    categorization: dict = field(repr=False, default_factory=dict)
    #: Router/L2 counters when the run used a sharded cluster.
    cluster: dict | None = None

    def to_json(self) -> dict:
        data = {
            "mode": self.mode,
            "workers": self.workers,
            "shards": self.shards,
            "domains": self.domains,
            "duration_virtual_s": round(self.duration_virtual_s, 3),
            "ttl_wait_s": round(self.ttl_wait_s, 3),
            "active_virtual_s": round(self.active_virtual_s, 3),
            "domains_per_virtual_s": round(self.domains_per_virtual_s, 2),
            "messages": self.messages,
            "messages_per_domain": round(self.messages_per_domain, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "infra_hit_rate": round(self.infra_hit_rate, 4),
            "coalesced": self.coalesced,
            "coalesce_rate": round(self.coalesce_rate, 4),
            "wall_s": round(self.wall_s, 2),
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster
        return data


def categorization_of(result: ScanResult) -> dict:
    """Order-independent per-domain scan outcome, JSON-serializable."""
    return {
        record.name: [
            int(record.rcode),
            list(record.ede_codes),
            list(record.extra_texts),
            record.error,
        ]
        for record in result.records
    }


def population_config_for(target_domains: int, seed: int = DEFAULT_SEED) -> PopulationConfig:
    """Map a target domain count onto the population's 1:k scale."""
    scale = max(1, NOMINAL_TOTAL_DOMAINS // max(1, int(target_domains)))
    return PopulationConfig(scale=scale, seed=seed)


def run_one(
    population: Population,
    workers: int,
    *,
    use_lanes: bool | None = None,
    scanner_seed: int = 7,
    shards: int = 1,
) -> BenchRun:
    """Build a fresh universe for ``population``'s config and scan it.

    A fresh :class:`WildInternet` per run keeps runs independent — the
    fabric, caches and virtual clock all start cold, exactly like the
    sequential baseline the concurrent runs are compared against.
    ``shards`` > 1 scans through a consistent-hash resolver cluster of
    that many shards instead of a single resolver.
    """
    wild = WildInternet(population)
    scanner = WildScanner(wild, seed=scanner_seed, shards=shards)
    wall_start = time.perf_counter()  # repro: allow[wall-clock]
    result = scanner.scan(workers=workers, use_lanes=use_lanes)
    wall = time.perf_counter() - wall_start  # repro: allow[wall-clock]

    cache = scanner.resolver.cache_stats()
    # "Useful hit" counts every store that answered a client without an
    # upstream fetch; `misses` only tracks positive-store probes, so
    # this is the documented approximation (see EXPERIMENTS.md).
    useful_hits = (
        cache.hits + cache.stale_hits + cache.negative_hits + cache.error_hits
    )
    lookups = useful_hits + cache.misses
    rstats = scanner.resolver.stats
    infra_lookups = rstats.infra_hits + rstats.infra_misses
    n = len(result.records)
    active = max(result.active_virtual, 1e-9)
    lanes_on = (workers > 1) if use_lanes is None else bool(use_lanes)
    cluster_info = None
    if shards > 1:
        cluster = scanner.resolver
        cluster_info = {
            "routed": list(cluster.cluster_stats.routed),
            "imbalance": round(cluster.imbalance(), 4),
            "l2_hits": cluster.l2.stats.hits if cluster.l2 else 0,
            "l2_stores": cluster.l2.stats.stores if cluster.l2 else 0,
        }
    return BenchRun(
        mode="lanes" if lanes_on else "sequential",
        workers=result.workers,
        shards=max(1, shards),
        domains=n,
        duration_virtual_s=result.duration_virtual,
        ttl_wait_s=result.ttl_wait_virtual,
        active_virtual_s=result.active_virtual,
        domains_per_virtual_s=n / active,
        messages=result.queries_sent,
        messages_per_domain=result.queries_sent / max(1, n),
        cache_hit_rate=useful_hits / lookups if lookups else 0.0,
        infra_hit_rate=rstats.infra_hits / infra_lookups if infra_lookups else 0.0,
        coalesced=result.coalesced,
        coalesce_rate=result.coalesced / max(1, rstats.queries),
        wall_s=wall,
        categorization=categorization_of(result),
        cluster=cluster_info,
    )


def bench_population(
    target_domains: int,
    workers_list: Iterable[int] = (1, 8, 32),
    seed: int = DEFAULT_SEED,
) -> dict:
    """Sequential baseline plus one lane-pool run per worker count.

    Returns the JSON-ready report for this population, including the
    divergence verdict: ``categorization_identical`` is True only when
    every concurrent run produced byte-identical per-domain results to
    the sequential baseline — and at least one such comparison actually
    ran.  An empty ``workers_list`` therefore fails the gate instead of
    vacuously passing it (``--workers ""`` used to exit 0 having
    compared nothing).
    """
    config = population_config_for(target_domains, seed)
    population = generate_population(config)

    baseline = run_one(population, workers=1, use_lanes=False)
    runs = [baseline]
    for workers in workers_list:
        runs.append(run_one(population, workers=workers, use_lanes=True))

    comparisons = len(runs) - 1
    identical = comparisons > 0 and all(
        run.categorization == baseline.categorization for run in runs
    )
    by_workers = {run.workers: run for run in runs if run.mode == "lanes"}
    speedups = {
        str(w): round(baseline.active_virtual_s / max(run.active_virtual_s, 1e-9), 2)
        for w, run in sorted(by_workers.items())
    }

    ede_counts: dict[int, int] = {}
    for name, (rcode, codes, _texts, _error) in baseline.categorization.items():
        for code in codes:
            ede_counts[code] = ede_counts.get(code, 0) + 1

    return {
        "target_domains": target_domains,
        "population_scale": config.scale,
        "actual_domains": len(population.domains),
        "runs": [run.to_json() for run in runs],
        "speedup_vs_sequential": speedups,
        "ede_group_counts": {
            str(code): count for code, count in sorted(ede_counts.items())
        },
        "comparison_runs": comparisons,
        "categorization_identical": identical,
    }


def bench_shards(
    target_domains: int,
    shard_counts: Iterable[int] = (1, 2, 8),
    seed: int = DEFAULT_SEED,
    workers: int = 8,
) -> dict:
    """Shard-count scaling ladder: one cluster scan per shard count.

    Every run is compared against a plain sequential single-resolver
    baseline; ``categorization_identical`` holds only when every shard
    count reproduced it byte-for-byte *and* at least one shard run was
    compared (an empty ladder fails closed, like
    :func:`bench_population`).
    """
    config = population_config_for(target_domains, seed)
    population = generate_population(config)

    baseline = run_one(population, workers=1, use_lanes=False)
    shard_runs = [
        run_one(population, workers=workers, use_lanes=True, shards=int(count))
        for count in shard_counts
    ]
    comparisons = len(shard_runs)
    identical = comparisons > 0 and all(
        run.categorization == baseline.categorization for run in shard_runs
    )
    return {
        "target_domains": target_domains,
        "population_scale": config.scale,
        "actual_domains": len(population.domains),
        "workers": workers,
        "baseline": baseline.to_json(),
        "runs": [run.to_json() for run in shard_runs],
        "comparison_runs": comparisons,
        "categorization_identical": identical,
    }


def _run_failover_scan(
    population: Population,
    *,
    workers: int,
    shards: int,
    jitter_seed: int,
    drill_seed: int,
    crash_after: float,
    restart_after: float,
    cooldown: float,
) -> tuple[dict, dict]:
    """One faulted cluster scan: seeded victim crash mid-scan.

    Returns ``(categorization, facts)`` — the per-domain outcomes (to
    compare against the fault-free baseline) and the drill facts the
    failover contract checks (ejection, blackhole, rejoin, routing).
    """
    wild = WildInternet(population)
    clock = wild.fabric.clock
    scanner = WildScanner(
        wild,
        cluster_config=ClusterConfig(
            shards=shards,
            health=ShardHealthConfig(failure_threshold=3, cooldown=cooldown),
        ),
        engine_config=EngineConfig(rng_seed=jitter_seed),
    )
    cluster = scanner.resolver
    probe_names = [domain.name for domain in population.domains[:256]]
    pre_routing = cluster.routing_snapshot(probe_names)
    plan = seeded_single_crash(
        drill_seed,
        shards,
        clock=clock,
        crash_after=crash_after,
        restart_after=restart_after,
    )
    cluster.install_shard_chaos(plan.policy)
    result = scanner.scan(workers=workers, use_lanes=True)
    facts = {
        "victim": plan.victim,
        "ejections": cluster.health.stats.ejections,
        "recoveries": cluster.health.stats.recoveries,
        "probe_successes": cluster.health.stats.probe_successes,
        "probe_failures": cluster.health.stats.probe_failures,
        "victim_state": cluster.health.state_of(plan.victim).value,
        "datagrams_while_ejected": cluster.datagrams_while_ejected(
            plan.victim
        ),
        "failover_routed": cluster.cluster_stats.failover_total,
        "routing_restored": (
            cluster.routing_snapshot(probe_names) == pre_routing
        ),
        "l2_owner_flushed": (
            cluster.l2.stats.owner_flushed if cluster.l2 is not None else 0
        ),
    }
    return categorization_of(result), facts


def bench_failover(
    target_domains: int,
    seed: int = DEFAULT_SEED,
    workers: int = 8,
    shards: int = 4,
    jitter_seeds: Iterable[int] = (1, 20230524),
    crash_after: float = 0.3,
    restart_after: float = 0.9,
    cooldown: float = 0.25,
) -> dict:
    """The scan-side failover drill: crash a shard mid-scan, twice.

    A seeded victim shard crashes ``crash_after`` virtual seconds into
    the scan and cold-restarts at ``restart_after``; the health monitor
    must eject it, reroute its key range, blackhole it (zero datagrams
    while ejected), and rejoin it via one half-open probe — all without
    changing a single per-domain categorization versus the fault-free
    sequential baseline.  The drill runs once per retry-jitter seed and
    both runs must agree on every categorization and drill fact.

    The default fault window is tuned to the scan's virtual timeline:
    the whole crash-eject-restart-probe-rejoin sequence completes inside
    the single-phase sweep (~5 s of virtual time even at the 200-domain
    CI scale), *before* the two-phase stale/cached-error tail — a
    rejoin that lands mid-``stale_prime`` would reroute a prime to a
    ring successor and change a stale domain's categorization.
    """
    jitter_seeds = [int(s) for s in jitter_seeds]
    config = population_config_for(target_domains, seed)
    population = generate_population(config)
    baseline = run_one(population, workers=1, use_lanes=False)

    runs = []
    for jitter_seed in jitter_seeds:
        categorization, facts = _run_failover_scan(
            population,
            workers=workers,
            shards=shards,
            jitter_seed=jitter_seed,
            drill_seed=seed,
            crash_after=crash_after,
            restart_after=restart_after,
            cooldown=cooldown,
        )
        runs.append(
            {
                "jitter_seed": jitter_seed,
                "categorization": categorization,
                "facts": facts,
            }
        )

    categorization_identical = len(runs) > 0 and all(
        run["categorization"] == baseline.categorization for run in runs
    )
    reference = runs[0]
    mismatched = [
        run["jitter_seed"]
        for run in runs[1:]
        if (run["categorization"], run["facts"])
        != (reference["categorization"], reference["facts"])
    ]
    deterministic = len(jitter_seeds) >= 2 and not mismatched
    facts = reference["facts"]

    contract = [
        {
            "check": "failover-categorization-identical",
            "ok": categorization_identical,
            "detail": (
                "faulted cluster scans reproduce the fault-free "
                "sequential categorization byte-for-byte"
            ),
        },
        {
            "check": "failover-ejection",
            "ok": facts["ejections"] >= 1 and facts["failover_routed"] > 0,
            "detail": (
                f"victim shard {facts['victim']}: "
                f"{facts['ejections']} ejection(s), "
                f"{facts['failover_routed']} queries rerouted"
            ),
        },
        {
            "check": "failover-blackhole",
            "ok": facts["datagrams_while_ejected"] == 0,
            "detail": (
                "datagrams reaching the ejected shard: "
                f"{facts['datagrams_while_ejected']} (must be 0)"
            ),
        },
        {
            "check": "failover-rejoin",
            "ok": (
                facts["victim_state"] == "healthy"
                and facts["probe_successes"] >= 1
                and facts["recoveries"] >= 1
            ),
            "detail": (
                f"victim {facts['victim_state']} after "
                f"{facts['probe_successes']} successful probe(s)"
            ),
        },
        {
            "check": "failover-routing-restored",
            "ok": bool(facts["routing_restored"]),
            "detail": (
                "post-recovery routing equals the pre-fault map: "
                f"{facts['routing_restored']}"
            ),
        },
    ]
    return {
        "target_domains": target_domains,
        "population_scale": config.scale,
        "actual_domains": len(population.domains),
        "workers": workers,
        "shards": shards,
        "jitter_seeds": jitter_seeds,
        "drill_seed": seed,
        "crash_after": crash_after,
        "restart_after": restart_after,
        "cooldown": cooldown,
        "facts": facts,
        "contract": contract,
        "comparison_runs": len(runs),
        "categorization_identical": categorization_identical,
        "deterministic": deterministic,
        "mismatched_seeds": mismatched,
        "failover_ok": (
            deterministic and all(row["ok"] for row in contract)
        ),
    }


def bench_report(
    scale_specs: Iterable[tuple[int, Iterable[int]]],
    seed: int = DEFAULT_SEED,
    shard_counts: Iterable[int] | None = None,
    failover: bool = False,
) -> dict:
    """Full multi-population report (the ``BENCH_scan.json`` payload).

    ``scale_specs`` pairs each target domain count with the worker
    counts to benchmark there, so a large population can run a trimmed
    ladder (e.g. 32 workers only) while the small one runs the full set.
    ``shard_counts`` adds the shard-count scaling section, run at the
    first population's target size; its identity verdict participates
    in ``all_identical`` (and therefore the CLI exit code).
    ``failover`` adds the shard-failover drill section
    (:func:`bench_failover`), whose categorization identity joins the
    gate the same way.
    """
    specs = [(int(scale), [int(w) for w in workers]) for scale, workers in scale_specs]
    populations = [
        bench_population(scale, workers, seed) for scale, workers in specs
    ]
    verdicts = [p["categorization_identical"] for p in populations]
    report = {
        "schema": SCHEMA,
        "seed": seed,
        "workers": sorted({w for _scale, workers in specs for w in workers}),
        "populations": populations,
    }
    if shard_counts is not None:
        shard_section = bench_shards(
            specs[0][0] if specs else 1000,
            shard_counts=shard_counts,
            seed=seed,
        )
        report["shard_scaling"] = shard_section
        verdicts.append(shard_section["categorization_identical"])
    if failover:
        failover_section = bench_failover(
            specs[0][0] if specs else 1000, seed=seed
        )
        report["failover"] = failover_section
        verdicts.append(failover_section["categorization_identical"])
    report["all_identical"] = bool(verdicts) and all(verdicts)
    return report


def write_report(report: dict, path: str = "BENCH_scan.json") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
