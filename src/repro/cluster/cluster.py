"""``ResolverCluster`` — N resolver shards behind one query router.

The architecture a Cloudflare/Quad9-style public resolver actually
runs, in miniature: every shard is a full
:class:`~repro.resolver.recursive.RecursiveResolver` with its *own*
answer cache, SRTT/lameness server book, and circuit-breaker book; a
deterministic consistent-hash router (see :mod:`repro.cluster.ring`)
assigns each query to a shard by the qname's registered domain.  The
cluster is an :class:`~repro.net.endpoint.Endpoint` with the same three
doors as a single resolver or a
:class:`~repro.resolver.resilience.ResilientFrontend`, so it drops into
``tools/serve.py``, the load engine, and the wild scanner unchanged.

Shard count must be *provably invisible* in scan results — EDE
categorization is a pure function of the messages exchanged, and the
registered-domain keying guarantees per-name state (positive/negative/
error caches, the two-phase stale flow, single-flight coalescing)
stays on one shard.  ``tests/test_cluster_differential.py`` pins this
byte-for-byte at 1, 2, and 8 shards.

The shared **L2 tier**, on whenever there is more than one shard, is a
read-through cache of validator infrastructure fetches (DNSKEY/DS sets
and referral data keyed by ``(zone, qname, rdtype)``): the records
every shard would fetch identically, and the only cross-shard sharing
that cannot perturb per-name semantics.  A shard that misses its
private L1 infra cache consults the L2 before going to the wire and
publishes what it fetched.
Publications are tagged with the owning shard so a cold shard restart
can discard exactly that shard's entries (a restarted process's old
publications cannot be trusted) while keeping the survivors' warm.

**Failover.**  A crashed shard must not blackhole its key range.  The
cluster consults a :class:`~repro.cluster.health.ShardHealthMonitor`
(on by default): consecutive dispatch failures eject the shard from
the routing ring, its keys reroute to their clockwise successors
(minimal-disruption property, hypothesis-pinned), and after a
virtual-time cooldown a single half-open probe decides rejoin.  While
ejected the cluster dispatches *nothing* to the shard — the drill gate
pins its datagram counter at exactly zero.  Faults themselves come
from a seeded :class:`~repro.cluster.chaos.ShardChaosPolicy` so every
failover sequence replays byte-identically.  With no faults injected
the dispatch path degenerates to the PR 8 router: same counters, same
metric sequence, byte-identical scan output.

Router metrics (``repro_cluster_*``) ride the usual off-path
observability contract: with :data:`~repro.obs.NULL_OBS` every
recording call is a no-op and cluster runs are byte-identical to
obs-enabled ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

from ..dns.dnssec_records import DS
from ..dns.message import Message
from ..dns.name import Name
from ..dns.render import LazyWire
from ..dns.types import RdataType
from ..net.endpoint import Endpoint
from ..net.fabric import NetworkFabric
from ..net.ttl_store import TtlStore
from ..obs import NULL_OBS, Observability
from ..resolver.cache import CacheConfig, CacheStats
from ..resolver.iterative import EngineConfig
from ..resolver.profiles import ResolverProfile
from ..resolver.recursive import L2_CACHE_CAPACITY, RecursiveResolver, ResolverStats
from ..resolver.resilience import (
    FrontendConfig,
    ResilienceConfig,
    ResilientFrontend,
)
from .chaos import ShardChaosPolicy
from .health import ShardHealthConfig, ShardHealthMonitor, ShardHealthState
from .ring import ConsistentHashRing, registered_domain_key


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one resolver cluster."""

    shards: int = 2
    #: Shard health monitoring (ejection + half-open probe).  ``None``
    #: disables it entirely; the default config never perturbs a
    #: no-fault run because with zero failures no state ever changes.
    health: ShardHealthConfig | None = ShardHealthConfig()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a cluster needs at least one shard")


@dataclass
class L2Stats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Entries dropped because their ``expires_at`` had passed (on
    #: access or when room was needed) — never served stale.
    expired: int = 0
    #: Entries discarded because their publishing shard cold-restarted.
    owner_flushed: int = 0


class SharedL2Cache:
    """Cross-shard read-through tier for infrastructure fetch results.

    A :class:`~repro.net.ttl_store.TtlStore` of ``FetchResult`` payloads
    on the shared virtual clock — exactly what a shard's private L1
    infra cache holds, so a read-through hit is indistinguishable
    (record-wise) from the fetch the shard would otherwise have
    performed itself.  Each publication is tagged with the publishing
    shard so :meth:`flush_owner` can drop a cold-restarted shard's.
    The store's rule applies: an entry whose ``expires_at`` has passed
    is *never* served, and at capacity expired entries go before any
    live one.
    """

    def __init__(self, clock, capacity: int = L2_CACHE_CAPACITY, listener=None):
        self._store = TtlStore(clock, capacity)
        self._stats = L2Stats()
        #: Optional ``callable(outcome: str)`` the cluster hooks to emit
        #: ``repro_cluster_l2_total`` off-path.
        self._listener = listener

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> L2Stats:
        stats = self._stats
        stats.expired = self._store.expired
        stats.evictions = self._store.evicted
        return stats

    def _note(self, outcome: str) -> None:
        if self._listener is not None:
            self._listener(outcome)

    def get(self, key: tuple):
        """``(result, expires_at)`` for a live entry, else None."""
        entry = self._store.fresh(key)
        if entry is None:
            self._stats.misses += 1
            self._note("miss")
            return None
        self._stats.hits += 1
        self._note("hit")
        return entry[0], entry[1]

    def put(self, key: tuple, result, expires_at: float, owner=None) -> None:
        self._store.put(key, result, expires_at, owner)
        self._stats.stores += 1
        self._note("store")

    def flush_owner(self, owner) -> int:
        """Drop every entry ``owner`` published; how many were dropped."""
        dropped = self._store.flush_owner(owner)
        self._stats.owner_flushed += dropped
        return dropped

    def flush(self) -> None:
        self._store.flush()


class _ShardL2View:
    """One shard's handle on the shared L2 tier.

    Reads see the whole cluster's publications; writes are tagged with
    the owning shard's index so a cold restart can discard exactly that
    shard's entries.  The view preserves the ``get``/``put`` surface
    :meth:`RecursiveResolver.fetch_from_zone` expects.
    """

    __slots__ = ("_l2", "_owner")

    def __init__(self, l2: SharedL2Cache, owner: int):
        self._l2 = l2
        self._owner = owner

    def get(self, key: tuple):
        return self._l2.get(key)

    def put(self, key: tuple, result, expires_at: float) -> None:
        self._l2.put(key, result, expires_at, owner=self._owner)


@dataclass
class ClusterStats:
    """Router-level counters (shard internals live on the shards)."""

    routed: list[int] = field(default_factory=list)
    parse_fallbacks: int = 0
    #: Per-shard count of queries routed *away* from this shard to a
    #: ring successor because it was down or ejected.
    failover_routed: list[int] = field(default_factory=list)
    #: Queries dropped because no shard could take them (whole-cluster
    #: outage); the client sees a timeout, exactly like a dead cluster.
    unroutable: int = 0
    #: Max observed growth of a shard's datagram counter while it was
    #: ejected — the drill gate pins this at exactly 0.
    datagrams_while_ejected: dict[int, int] = field(default_factory=dict)

    @property
    def routed_total(self) -> int:
        return sum(self.routed)

    @property
    def failover_total(self) -> int:
        return sum(self.failover_routed)


class ResolverCluster(Endpoint):
    """N recursive-resolver shards behind a consistent-hash router.

    Its three doors are routers: each hands the query to the same door
    of its shard (the shard's :class:`ResilientFrontend` when the
    cluster has them), which applies the rules of
    :mod:`repro.net.endpoint` there.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        profile: ResolverProfile,
        root_hints: list[str],
        trust_anchors: list[DS] | None = None,
        *,
        config: ClusterConfig | None = None,
        shards: int | None = None,
        engine_config: EngineConfig | None = None,
        validate: bool = True,
        resilience: ResilienceConfig | None = None,
        cache_config: CacheConfig | None = None,
        frontend_config: FrontendConfig | None = None,
        obs: Observability | None = None,
    ):
        if config is None:
            config = ClusterConfig(shards=shards if shards is not None else 2)
        elif shards is not None and shards != config.shards:
            config = dataclasses.replace(config, shards=shards)
        self.config = config
        self.fabric = fabric
        self.clock = fabric.clock
        self.profile = profile
        self.obs = obs or NULL_OBS
        self._m_routed = self.obs.counter("repro_cluster_routed_total")
        self._m_l2 = self.obs.counter("repro_cluster_l2_total")
        self._m_imbalance = self.obs.gauge("repro_cluster_imbalance_ratio")
        self._m_shards = self.obs.gauge("repro_cluster_shards")
        self._m_ejections = self.obs.counter("repro_cluster_ejections_total")
        self._m_failover = self.obs.counter(
            "repro_cluster_failover_routed_total"
        )
        self._m_probe = self.obs.counter("repro_cluster_probe_total")

        self.l2: SharedL2Cache | None = (
            SharedL2Cache(self.clock, listener=self._note_l2) if config.shards > 1 else None
        )

        shard_ids = [self._shard_id(i) for i in range(config.shards)]
        #: The *routing* ring: ejection removes a shard, rejoin re-adds
        #: it (the hypothesis-pinned symmetry restores the original
        #: mapping exactly).
        self.ring = ConsistentHashRing(shard_ids)
        #: The *home* ring: the fault-free mapping, never mutated —
        #: probes need to know which ejected shard a key belongs to.
        self._home_ring = ConsistentHashRing(shard_ids)
        self._index_of = {
            self._shard_id(i): i for i in range(config.shards)
        }
        self.shards: list[RecursiveResolver] = [
            RecursiveResolver(
                fabric=fabric,
                profile=profile,
                root_hints=list(root_hints),
                trust_anchors=trust_anchors,
                engine_config=engine_config,
                validate=validate,
                resilience=resilience,
                cache_config=cache_config,
                obs=self.obs,
                l2=None if self.l2 is None else _ShardL2View(self.l2, index),
            )
            for index in range(config.shards)
        ]
        self.frontends: list[ResilientFrontend] | None = None
        if frontend_config is not None:
            self.frontends = [
                ResilientFrontend(shard, frontend_config)
                for shard in self.shards
            ]
        self.cluster_stats = ClusterStats(
            routed=[0] * config.shards,
            failover_routed=[0] * config.shards,
        )
        self.health: ShardHealthMonitor | None = None
        if config.health is not None:
            self.health = ShardHealthMonitor(
                self.clock, config.shards, config.health
            )
        self._shard_chaos: ShardChaosPolicy | None = None
        self._ejected_ids: set[str] = set()
        #: Shard datagram-counter value sampled at ejection time; the
        #: while-ejected delta must stay 0 (the blackhole gate).
        self._ejected_marks: dict[int, int] = {}
        if self.obs.enabled:
            self._m_shards.set(config.shards)

    @staticmethod
    def _shard_id(index: int) -> str:
        return f"shard-{index}"

    # -- routing -------------------------------------------------------------

    def shard_index_for(self, qname: Name | str) -> int:
        """Deterministic shard index for a qname (no counters touched).

        Uses the *routing* ring, so while a shard is ejected this names
        the successor actually serving the key; once it rejoins, the
        original mapping is restored (ring re-add symmetry).
        """
        key = registered_domain_key(qname)
        try:
            return self._index_of[self.ring.shard_for(key)]
        except LookupError:
            # Every shard ejected: fall back to the fault-free mapping.
            return self._index_of[self._home_ring.shard_for(key)]

    def routing_snapshot(self, qnames: Iterable[Name | str]) -> tuple[int, ...]:
        """Current shard index per qname — the drill compares pre-fault
        and post-recovery snapshots for equality."""
        return tuple(self.shard_index_for(qname) for qname in qnames)

    def _count_route(self, index: int) -> None:
        self.cluster_stats.routed[index] += 1
        if self.obs.enabled:
            self._m_routed.labels(shard=self._shard_id(index)).inc()
            self._m_imbalance.set(self.imbalance())

    def _note_l2(self, outcome: str) -> None:
        if self.obs.enabled:
            self._m_l2.labels(outcome=outcome).inc()

    def imbalance(self) -> float:
        """Max shard load over the mean (1.0 = perfectly even)."""
        routed = self.cluster_stats.routed
        total = sum(routed)
        if not total:
            return 0.0
        return max(routed) / (total / len(routed))

    # -- failover machinery ---------------------------------------------------

    def install_shard_chaos(self, policy: ShardChaosPolicy) -> ShardChaosPolicy:
        """Attach a seeded shard fault schedule; returns it for chaining."""
        self._shard_chaos = policy
        return policy

    @property
    def shard_chaos(self) -> ShardChaosPolicy | None:
        return self._shard_chaos

    def _quiet(self) -> bool:
        """True when the PR 8 fast path applies: no chaos schedule
        installed and nothing ejected — dispatch is a pure ring lookup
        with byte-identical counters and metric sequence."""
        return self._shard_chaos is None and not self._ejected_ids

    def _shard_up(self, index: int) -> bool:
        if self._shard_chaos is None:
            return True
        return self._shard_chaos.up(index, self.clock.now())

    def _tick(self) -> None:
        """Apply due restarts from the chaos schedule (cold flushes)."""
        if self._shard_chaos is None:
            return
        for fault in self._shard_chaos.due_restarts(self.clock.now()):
            if fault.cold_cache and 0 <= fault.shard < len(self.shards):
                self._cold_restart(fault.shard)

    def _cold_restart(self, index: int) -> None:
        """A restarted process lost its memory: flush the shard's L1
        caches and discard its (now untrustworthy) L2 publications."""
        self.shards[index].flush_caches()
        if self.l2 is not None:
            self.l2.flush_owner(index)

    def _datagrams_of(self, index: int) -> int:
        if self.frontends is not None:
            return self.frontends[index].stats.datagrams
        return self.shards[index].stats.queries

    def datagrams_while_ejected(self, index: int) -> int:
        """Growth of the shard's datagram counter while ejected (the
        blackhole gate pins this at exactly 0).  Live while the shard is
        still out; frozen at the last probe-grant sample after rejoin —
        the successful probe itself lands after the sample, so it never
        counts against the gate."""
        recorded = self.cluster_stats.datagrams_while_ejected.get(index, 0)
        mark = self._ejected_marks.get(index)
        if mark is not None:
            return max(recorded, self._datagrams_of(index) - mark)
        return recorded

    def _note_failover(self, index: int) -> None:
        self.cluster_stats.failover_routed[index] += 1
        if self.obs.enabled:
            self._m_failover.labels(shard=self._shard_id(index)).inc()

    def _eject(self, index: int) -> None:
        shard_id = self._shard_id(index)
        self._ejected_ids.add(shard_id)
        self.ring.remove_shard(shard_id)
        self._ejected_marks[index] = self._datagrams_of(index)
        if self.obs.enabled:
            self._m_ejections.labels(shard=shard_id).inc()

    def _rejoin(self, index: int) -> None:
        shard_id = self._shard_id(index)
        self._ejected_ids.discard(shard_id)
        self.ring.add_shard(shard_id)
        self._ejected_marks.pop(index, None)

    def _sample_blackhole(self, index: int) -> None:
        """Record the while-ejected datagram delta (should be 0)."""
        mark = self._ejected_marks.get(index)
        if mark is None:
            return
        delta = self._datagrams_of(index) - mark
        recorded = self.cluster_stats.datagrams_while_ejected
        recorded[index] = max(recorded.get(index, 0), delta)

    def _fallback_index(self, tried: set[str]) -> int | None:
        """First healthy, untried shard — the unparseable-datagram home
        and the keyless reroute order."""
        for index in range(len(self.shards)):
            shard_id = self._shard_id(index)
            if shard_id in tried or shard_id in self._ejected_ids:
                continue
            return index
        return None

    def _plan(self, key: str) -> tuple[int, bool]:
        """(first dispatch target, is_probe) for a keyed query."""
        if self.health is not None:
            home = self._index_of[self._home_ring.shard_for(key)]
            if self.health.state_of(home) is ShardHealthState.EJECTED:
                if self.health.allow_probe(home):
                    # This query is the half-open probe: sample the
                    # blackhole gate first, then dispatch to the shard.
                    self._sample_blackhole(home)
                    return home, True
                try:
                    index = self._index_of[self.ring.shard_for(key)]
                except LookupError:
                    return home, False  # everyone ejected; try home anyway
                self._note_failover(home)
                return index, False
        return self._index_of[self.ring.shard_for(key)], False

    def _next_target(self, key: str | None, tried: set[str]) -> int | None:
        if key is None:
            return self._fallback_index(tried)
        try:
            return self._index_of[self.ring.shard_for(key, exclude=tried)]
        except LookupError:
            return None

    def _observe_success(self, index: int, probe: bool) -> None:
        if self.health is None:
            return
        # A success can be a rejoin edge without the local probe flag: a
        # dispatch that was granted the probe slot by another lane's
        # plan.  Ring membership follows the health state either way.
        if self.health.on_success(index):
            self._rejoin(index)
        if probe and self.obs.enabled:
            self._m_probe.labels(outcome="ok").inc()

    def _observe_down(self, index: int, probe: bool) -> None:
        if self._shard_chaos is not None:
            self._shard_chaos.note_blocked()
        if self.health is None:
            return
        if probe:
            self.health.on_failure(index)
            if self.obs.enabled:
                self._m_probe.labels(outcome="fail").inc()
        elif self.health.state_of(index) is not ShardHealthState.EJECTED:
            if self.health.on_failure(index):
                self._eject(index)

    def _dispatch(self, key: str | None, call):
        """Run ``call(index)`` against the planned shard, with chaos
        gating, health observation, and successor failover.

        ``key is None`` is the unparseable-datagram path: it targets
        the first healthy shard and, like PR 8's shard-0 fallback, does
        not count a route.  Returns ``call``'s result, or None when no
        shard can take the query (whole-cluster outage: the datagram is
        dropped and the client times out, exactly as against a dead
        cluster).
        """
        if self._quiet():
            if key is None:
                return call(0)
            index = self._index_of[self.ring.shard_for(key)]
            self._count_route(index)
            return call(index)
        self._tick()
        if key is None:
            probe = False
            index = self._fallback_index(set())
            if index is None:
                self.cluster_stats.unroutable += 1
                return None
        else:
            index, probe = self._plan(key)
        tried: set[str] = set()
        while True:
            if self._shard_up(index):
                if key is not None:
                    self._count_route(index)
                result = call(index)
                self._observe_success(index, probe)
                return result
            self._observe_down(index, probe)
            probe = False
            tried.add(self._shard_id(index))
            next_index = self._next_target(key, tried)
            if next_index is None:
                self.cluster_stats.unroutable += 1
                return None
            self._note_failover(index)
            index = next_index

    # -- resolver-compatible surface -----------------------------------------

    def resolve(self, qname: Name | str, rdtype: RdataType | str = RdataType.A, **kwargs):
        name = qname if isinstance(qname, Name) else Name.from_text(qname)
        result = self._dispatch(
            registered_domain_key(name),
            lambda index: self.shards[index].resolve(name, rdtype, **kwargs),
        )
        if result is None:
            raise LookupError(f"no shard available to resolve {name}")
        return result

    def handle_query(self, query: Message, source: str = "") -> Message:
        result = self._dispatch(
            registered_domain_key(query.question[0].name),
            lambda index: self.shards[index].handle_query(query, source),
        )
        if result is None:
            raise LookupError("no shard available to serve the query")
        return result

    def handle_datagram(self, wire: bytes, source: str) -> bytes | None:
        return self._route(
            wire, None, lambda door: door.handle_datagram(wire, source)
        )

    def handle_paved(
        self, wire: bytes | LazyWire, source: str, query: Message
    ) -> bytes | LazyWire | None:
        return self._route(
            wire, query, lambda door: door.handle_paved(wire, source, query)
        )

    def handle_stream(self, wire: bytes, source: str) -> bytes | None:
        return self._route(wire, None, lambda door: door.handle_stream(wire, source))

    def _route(self, wire, query: Message | None, call):
        """Run ``call`` on the door of the shard ``wire`` (parsed, or
        ``query`` when the sender already parsed it) belongs to.  Never
        raises.

        A query that cannot be keyed — undecodable or question-less —
        goes to the first *healthy* shard (shard 0 when nothing is
        ejected — the PR 8 behaviour), whose door answers it.  A
        whole-cluster outage returns None: the query is dropped.
        """
        key = None
        try:
            if query is None:
                query = Message.from_wire(wire)
            if query.question:
                key = registered_domain_key(query.question[0].name)
        except Exception:
            pass
        if key is None:
            self.cluster_stats.parse_fallbacks += 1
        doors = self.frontends if self.frontends is not None else self.shards
        try:
            return self._dispatch(key, lambda index: call(doors[index]))
        except Exception:
            return None

    def run_refreshes(self, limit: int | None = None) -> int:
        return sum(shard.run_refreshes(limit) for shard in self.shards)

    def flush_caches(self) -> None:
        for shard in self.shards:
            shard.flush_caches()
        if self.l2 is not None:
            self.l2.flush()

    def answer_from_cache(self, query: Message) -> Message | None:
        index = self.shard_index_for(query.question[0].name)
        return self.shards[index].answer_from_cache(query)

    # -- aggregated inspection -----------------------------------------------

    @property
    def stats(self) -> ResolverStats:
        """Summed snapshot of every shard's :class:`ResolverStats`."""
        total = ResolverStats()
        for shard in self.shards:
            for spec in dataclasses.fields(ResolverStats):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(shard.stats, spec.name),
                )
        return total

    def cache_stats(self) -> CacheStats:
        """Summed snapshot of every shard's answer-cache counters."""
        total = CacheStats()
        for shard in self.shards:
            for spec in dataclasses.fields(CacheStats):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(shard.cache.stats, spec.name),
                )
        return total

    def open_breaker_keys(self) -> tuple[str, ...]:
        keys: set[str] = set()
        for shard in self.shards:
            keys.update(shard.open_breaker_keys())
        return tuple(sorted(keys))

    def refresh_backlog(self) -> int:
        return sum(shard.refresh_backlog() for shard in self.shards)
