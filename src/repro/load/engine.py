"""The load replay engine: schedule, drive, measure.

The engine pre-computes every query event of a scenario — arrival time,
client, qname, encoded wire — from the *schedule* seed, then replays
them through a :class:`~repro.resolver.resilience.ResilientFrontend`
on the deterministic virtual-time lane pool.  A lane picks up the next
event, advances its lane clock to the arrival time (or carries the
queueing delay if it is already past it), and hands the datagram to the
frontend exactly like the UDP server would; latency is read back off
the virtual clock at the point a client would observe it.

Two seeds, two roles:

* ``schedule_seed`` — population ranking, client classes, arrival
  processes, Zipf draws, client message IDs.  Fixed per suite.
* ``jitter_seed`` — the engine's retry-jitter RNG
  (:class:`~repro.resolver.iterative.EngineConfig` ``rng_seed``) and
  the chaos policy's RNG.  ``tests/test_load.py`` runs every scenario
  under two jitter seeds and requires byte-identical phase reports:
  the resolver budget (1.5 s) sits below the per-upstream timeout
  (2 s), so a first timeout always exhausts the budget and jittered
  backoff never gets to sleep — upstream randomness must not leak into
  client-visible behaviour, and the gate proves it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..cluster import ResolverCluster, ShardChaosPolicy
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.types import RdataType
from ..net.chaos import ChaosPolicy, Outage
from ..net.lanes import run_in_lanes
from ..obs import Observability
from ..resolver.cache import default_cache_config
from ..resolver.iterative import EngineConfig
from ..resolver.profiles import CLOUDFLARE
from ..resolver.recursive import RecursiveResolver
from ..resolver.resilience import (
    FrontendConfig,
    ResilienceConfig,
    ResilientFrontend,
)
from ..scan.population import (
    DEFAULT_SEED,
    Population,
    Profile,
    generate_population,
    population_config_for,
)
from ..scan.wild import WildInternet
from .arrivals import client_arrivals
from .population import Client, ZipfMix, build_clients
from .report import build_phase_report, counter_delta, counter_values
from .scenarios import (
    SCENARIO_INDEX,
    SCENARIOS,
    PhaseSpec,
    ScenarioSpec,
)

#: Profiles that resolve to a cacheable NOERROR without validation —
#: the hot set is drawn from these so the outage phase has stale data
#: to degrade onto.
_HOT_ELIGIBLE = (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
#: Clients at ``scale=1.0``; a run's client count is this times ``scale``.
CLIENTS = 64
#: Domains in the hot set the Zipf mix favours.
HOT_SIZE = 8
#: Resolver-side client deadline budget.  Must stay below the 2 s
#: upstream timeout (see module docstring) and below every client
#: class deadline.
CLIENT_DEADLINE = 1.5


@dataclass
class LoadConfig:
    """Everything one scenario replay needs."""

    #: Synthetic population size (maps to the 1:k sampling scale).
    target_domains: int = 2000
    #: Fixes the whole client workload; the determinism gate never varies it.
    schedule_seed: int = 20230515
    #: Retry-jitter + chaos seed; the determinism gate varies this.
    jitter_seed: int = 1
    workers: int = 8
    #: Offered-load multiplier, applied to the *client count* rather
    #: than to per-client rates: a down-scaled run keeps each client's
    #: arrival rate (and therefore its RRL/token-bucket behaviour)
    #: intact while shrinking the population.
    scale: float = 1.0
    max_inflight: int = 6
    #: Resolver shards behind the consistent-hash router; 1 keeps the
    #: classic single frontend+resolver world byte-identical.
    shards: int = 1


@dataclass(frozen=True)
class _Event:
    at: float
    seq: int
    client: Client
    qname: str
    wire: bytes


def _derived_seed(*parts: int) -> int:
    value = 0
    for part in parts:
        value = (value * 1_000_003 + part + 1) % (2**63)
    return value


class LoadEngine:
    """Runs scenarios over one synthetic population."""

    def __init__(self, config: LoadConfig, population: Population | None = None):
        self.config = config
        self.population = population or generate_population(
            population_config_for(config.target_domains, DEFAULT_SEED)
        )
        self.clients = build_clients(
            max(4, round(CLIENTS * config.scale)), config.schedule_seed
        )
        self._ranked = [
            domain.name + "." for domain in self.population.tranco_domains()
        ]

    # -- world construction --------------------------------------------------

    def _build_world(self, min_shards: int = 0):
        """Wild internet + datagram endpoint + its resolver-like core.

        Returns ``(wild, endpoint, resolver)``: the endpoint speaks
        ``handle_datagram`` (a :class:`ResilientFrontend`, or a sharded
        :class:`~repro.cluster.ResolverCluster` when ``config.shards``
        > 1) and the resolver half answers ``run_refreshes`` /
        ``open_breaker_keys`` / ``refresh_backlog`` for the phase loop.
        ``min_shards`` lets a scenario force a real cluster (the
        shard-outage drill) regardless of the engine config.
        """
        shards = max(self.config.shards, min_shards)
        wild = WildInternet(self.population)
        obs = Observability(clock=wild.fabric.clock)
        frontend_config = FrontendConfig(
            max_inflight=self.config.max_inflight,
            # The engine drives background refreshes itself, after
            # measuring client-visible service time.
            inline_refreshes=False,
        )
        if shards > 1:
            cluster = ResolverCluster(
                fabric=wild.fabric,
                profile=CLOUDFLARE,
                root_hints=wild.root_hints,
                trust_anchors=wild.trust_anchors,
                shards=shards,
                validate=False,
                engine_config=EngineConfig(rng_seed=self.config.jitter_seed),
                resilience=ResilienceConfig(client_deadline=CLIENT_DEADLINE),
                cache_config=default_cache_config(),
                frontend_config=frontend_config,
                obs=obs,
            )
            return wild, cluster, cluster
        resolver = RecursiveResolver(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
            validate=False,
            engine_config=EngineConfig(rng_seed=self.config.jitter_seed),
            resilience=ResilienceConfig(client_deadline=CLIENT_DEADLINE),
            cache_config=default_cache_config(),
            obs=obs,
        )
        frontend = ResilientFrontend(resolver, frontend_config)
        return wild, frontend, resolver

    def _hot_domains(self, wild: WildInternet) -> list:
        hot = []
        for domain in self.population.tranco_domains():
            if domain.profile not in _HOT_ELIGIBLE:
                continue
            if not wild.server_address_for(domain).startswith("45."):
                continue
            hot.append(domain)
            if len(hot) >= HOT_SIZE:
                break
        if not hot:
            raise ValueError("population too small to pick a hot set")
        return hot

    # -- scheduling ----------------------------------------------------------

    def _build_events(
        self,
        phase: PhaseSpec,
        scenario_index: int,
        phase_index: int,
        start: float,
        mix: ZipfMix,
        sweep: tuple[str, ...] = (),
    ) -> list[_Event]:
        base = self.config.schedule_seed
        process = phase.arrivals
        raw: list[tuple[float, str, str]] = []
        for name_index, name in enumerate(sweep):
            client = self.clients[name_index % len(self.clients)]
            raw.append((start, client.address, name))
        for client_index, client in enumerate(self.clients):
            rng = random.Random(
                _derived_seed(base, scenario_index, phase_index, client_index)
            )
            for at in client_arrivals(process, start, phase.duration, rng):
                raw.append((at, client.address, mix.sample(rng)))
        raw.sort()
        by_address = {client.address: client for client in self.clients}
        wire_rng = random.Random(
            _derived_seed(base, scenario_index, phase_index, 0x5EED)
        )
        events = []
        for seq, (at, address, qname) in enumerate(raw):
            wire = Message.make_query(
                Name.from_text(qname),
                RdataType.A,
                recursion_desired=True,
                rng=wire_rng,
            ).to_wire()
            events.append(
                _Event(
                    at=at, seq=seq, client=by_address[address],
                    qname=qname, wire=wire,
                )
            )
        return events

    # -- execution -----------------------------------------------------------

    @staticmethod
    def _classify(response: Message) -> str:
        if response.rcode == Rcode.REFUSED:
            return "refused"
        if response.rcode == Rcode.FORMERR:
            return "formerr"
        if response.rcode == Rcode.SERVFAIL:
            return "servfail"
        if response.tc and not response.answer:
            return "truncated"
        codes = response.ede_codes
        if 3 in codes or 19 in codes:
            return "stale"
        return "fresh"

    def _run_phase(
        self,
        endpoint,
        resolver,
        clock,
        events: list[_Event],
        hot_names: frozenset[str],
    ) -> dict:
        latencies: list[float] = []
        queue_waits: list[float] = []
        classified: dict[str, int] = {}
        tallies = {"violations": 0, "hot_total": 0, "hot_answered": 0}

        def handle(event: _Event) -> None:
            now = clock.now()
            if event.at > now:
                clock.advance(event.at - now)
            started = clock.now()
            wire = endpoint.handle_datagram(event.wire, event.client.address)
            finished = clock.now()
            service = finished - started
            category = self._classify(Message.from_wire(wire))
            classified[category] = classified.get(category, 0) + 1
            latencies.append(finished - event.at + event.client.klass.rtt)
            queue_waits.append(started - event.at)
            if category in ("fresh", "stale"):
                if service > event.client.klass.deadline + 1e-9:
                    tallies["violations"] += 1
            if event.qname in hot_names:
                tallies["hot_total"] += 1
                if category in ("fresh", "stale"):
                    tallies["hot_answered"] += 1
            # Stale-while-revalidate work happens after the response is
            # on the wire: the lane (this simulated server thread) still
            # pays the virtual time, but no client waits on it.
            resolver.run_refreshes()
        run_in_lanes(clock, self.config.workers, events, handle)
        return {
            "latencies": latencies,
            "queue_waits": queue_waits,
            "classified": classified,
            **tallies,
        }

    def run_scenario(self, name: str) -> dict:
        spec: ScenarioSpec = SCENARIOS[name]
        scenario_index = SCENARIO_INDEX[name]
        wild, endpoint, resolver = self._build_world(min_shards=spec.shards)
        clock = wild.fabric.clock
        registry = endpoint.obs.registry

        # Shard-fault drill wiring: the victim pick and fault instants
        # are pure schedule-domain facts (they decide which queries get
        # degraded, a client-visible outcome), so the policy is seeded
        # from the *schedule* seed — the jitter seed must never reach
        # it.  ``endpoint`` is the ResolverCluster whenever a phase
        # carries a shard fault (spec.shards >= 2 forces it).
        shard_policy = None
        victim: int | None = None
        if any(phase.shard_fault for phase in spec.phases):
            if not isinstance(endpoint, ResolverCluster):
                raise ValueError(
                    f"scenario {name!r} injects shard faults but the "
                    "world is not a cluster"
                )
            shard_policy = ShardChaosPolicy(
                _derived_seed(
                    self.config.schedule_seed, scenario_index, 0xC7A0
                )
            )
            victim = shard_policy.rng.randrange(len(endpoint.shards))
            endpoint.install_shard_chaos(shard_policy)

        hot_domains = self._hot_domains(wild)
        hot_positive = tuple(domain.name + "." for domain in hot_domains)
        hot_missing = tuple(
            "missing." + domain.name + "." for domain in hot_domains
        )
        hot_names = hot_positive + hot_missing
        dead_addresses = frozenset(
            wild.server_address_for(domain) for domain in hot_domains
        )

        rows = []
        routing_probe = tuple(self._ranked[:256])
        pre_fault_routing: tuple[int, ...] | None = None
        victim_datagrams_before = 0
        for phase_index, phase in enumerate(spec.phases):
            if phase.advance_before:
                clock.advance(phase.advance_before)
            if phase.shard_fault == "crash":
                pre_fault_routing = endpoint.routing_snapshot(routing_probe)
                victim_datagrams_before = endpoint.frontends[
                    victim
                ].stats.datagrams
                shard_policy.crash(victim, at=clock.now())
            elif phase.shard_fault == "restart":
                shard_policy.restart(victim, at=clock.now(), cold_cache=True)
            if phase.outage_seconds:
                wild.fabric.install_chaos(
                    ChaosPolicy(
                        seed=self.config.jitter_seed,
                        outages=[
                            Outage(
                                0.0,
                                phase.outage_seconds,
                                target=dead_addresses.__contains__,
                            )
                        ],
                    )
                )
            mix = ZipfMix(
                self._ranked,
                s=phase.zipf_s,
                # The stale-NXDOMAIN side of the hot set rides along at
                # a fixed 1-in-5 of hot draws.
                hot=hot_positive * 4 + hot_missing,
                hot_weight=phase.hot_weight,
            )
            sweep = hot_names if phase.name == "warm" else ()
            events = self._build_events(
                phase, scenario_index, phase_index, clock.now(), mix, sweep
            )
            before = counter_values(registry)
            measured = self._run_phase(
                endpoint, resolver, clock, events, frozenset(hot_names)
            )
            if not phase.report:
                continue
            extras: dict = {}
            if phase.name == "outage":
                extras["cached_answered_fraction"] = round(
                    measured["hot_answered"] / measured["hot_total"], 6
                ) if measured["hot_total"] else 0.0
                extras["breakers_open_at_end"] = len(resolver.open_breaker_keys())
            if phase.name == "recovery":
                extras["breakers_closed"] = not resolver.open_breaker_keys()
                extras["refresh_backlog"] = resolver.refresh_backlog()
            if phase.name == "shard-crash":
                classified = measured["classified"]
                total = sum(classified.values())
                answered = classified.get("fresh", 0) + classified.get(
                    "stale", 0
                )
                extras["victim"] = victim
                extras["answered_fraction"] = (
                    round(answered / total, 6) if total else 0.0
                )
                extras["victim_state"] = endpoint.health.state_of(
                    victim
                ).value
                extras["ejections"] = endpoint.health.stats.ejections
                extras["failover_routed"] = (
                    endpoint.cluster_stats.failover_total
                )
                extras["victim_datagrams_in_phase"] = (
                    endpoint.frontends[victim].stats.datagrams
                    - victim_datagrams_before
                )
                extras["datagrams_while_ejected"] = (
                    endpoint.datagrams_while_ejected(victim)
                )
            if phase.name == "shard-recovery":
                classified = measured["classified"]
                total = sum(classified.values())
                answered = classified.get("fresh", 0) + classified.get(
                    "stale", 0
                )
                extras["answered_fraction"] = (
                    round(answered / total, 6) if total else 0.0
                )
                extras["victim_state"] = endpoint.health.state_of(
                    victim
                ).value
                extras["probe_successes"] = (
                    endpoint.health.stats.probe_successes
                )
                extras["probe_failures"] = (
                    endpoint.health.stats.probe_failures
                )
                extras["datagrams_while_ejected"] = (
                    endpoint.datagrams_while_ejected(victim)
                )
                extras["l2_owner_flushed"] = (
                    endpoint.l2.stats.owner_flushed
                    if endpoint.l2 is not None
                    else 0
                )
                extras["routing_restored"] = (
                    endpoint.routing_snapshot(routing_probe)
                    == pre_fault_routing
                )
            rows.append(
                build_phase_report(
                    scenario=name,
                    phase=phase.name,
                    latencies=measured["latencies"],
                    queue_waits=measured["queue_waits"],
                    classified=measured["classified"],
                    deadline_violations=measured["violations"],
                    delta=counter_delta(before, counter_values(registry)),
                    extras=extras,
                )
            )
        return {"scenario": name, "title": spec.title, "phases": rows}
