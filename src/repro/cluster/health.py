"""Shard health tracking: the PR 4 breaker lifted to shard granularity.

A crashed shard must not silently blackhole its key range: the router
needs to *notice* the shard is gone, stop sending traffic there, and
bring it back once it recovers.  :class:`ShardHealthMonitor` is the
noticing half — a per-shard state machine with exactly the circuit
breaker's shape, but whose observations are whole-dispatch outcomes
(the shard answered / the shard was unreachable) rather than single
upstream exchanges:

``HEALTHY``
    Traffic flows; failures are counted.  The first failure moves the
    shard to SUSPECT so operators (and the drill reports) can see
    trouble before ejection.
``SUSPECT``
    Still routed to, still failing.  ``failure_threshold`` *consecutive*
    failures eject it; any success snaps it back to HEALTHY.
``EJECTED``
    Removed from routing: the cluster routes the shard's key range to
    its ring successors and must not dispatch to it at all (the drill
    gate pins the ejected shard's datagram counter at exactly zero).
    After a virtual-time ``cooldown`` a *single* half-open probe — one
    real client query whose home is the ejected shard — decides between
    rejoin and another cooldown.

Everything reads the shared virtual clock, so a failover sequence
replays byte-identically under the determinism sanitizer.  The monitor
itself never touches the ring or the fabric: it is a pure state
machine the :class:`~repro.cluster.cluster.ResolverCluster` consults,
which keeps it unit-testable without a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..net.clock import Clock


class ShardHealthState(Enum):
    """Ring-membership view of one shard."""

    HEALTHY = "healthy"  # in the ring, not currently failing
    SUSPECT = "suspect"  # in the ring, consecutive failures accumulating
    EJECTED = "ejected"  # out of the ring; cooldown then half-open probe


@dataclass(frozen=True)
class ShardHealthConfig:
    """Knobs for one :class:`ShardHealthMonitor`."""

    #: Consecutive dispatch failures (unreachable shard) that eject a
    #: shard from the ring.
    failure_threshold: int = 3
    #: Virtual seconds an ejected shard stays out before the half-open
    #: probe is allowed.
    cooldown: float = 30.0


@dataclass
class ShardHealthStats:
    """Counters across every shard in one monitor."""

    failures: int = 0
    ejections: int = 0
    recoveries: int = 0
    probes: int = 0
    probe_successes: int = 0
    probe_failures: int = 0


@dataclass
class _ShardHealth:
    """State for one shard."""

    state: ShardHealthState = ShardHealthState.HEALTHY
    consecutive_failures: int = 0
    ejected_until: float = 0.0
    probe_inflight: bool = False
    probe_started: float = 0.0
    ejections: int = 0


class ShardHealthMonitor:
    """Per-shard HEALTHY → SUSPECT → EJECTED machine on the virtual clock.

    The cluster feeds it one observation per dispatch (``on_success`` /
    ``on_failure``) and asks two questions:
    is this shard ejected, and — if so — may this query be the half-open
    probe.  Return values tell the cluster when ring membership must
    change: ``on_failure`` returns True at the ejection edge,
    ``on_success`` returns True at the rejoin edge.
    """

    def __init__(
        self,
        clock: Clock,
        shard_count: int,
        config: ShardHealthConfig | None = None,
    ):
        self._clock = clock
        self.config = config or ShardHealthConfig()
        self._shards = [_ShardHealth() for _ in range(shard_count)]
        self.stats = ShardHealthStats()

    def __len__(self) -> int:
        return len(self._shards)

    # -- inspection ----------------------------------------------------------

    def state_of(self, index: int) -> ShardHealthState:
        return self._shards[index].state

    def ejected_indices(self) -> tuple[int, ...]:
        return tuple(
            index
            for index, shard in enumerate(self._shards)
            if shard.state is ShardHealthState.EJECTED
        )

    def healthy_indices(self) -> tuple[int, ...]:
        return tuple(
            index
            for index, shard in enumerate(self._shards)
            if shard.state is not ShardHealthState.EJECTED
        )

    def ejections_of(self, index: int) -> int:
        return self._shards[index].ejections

    def snapshot(self) -> dict:
        """JSON-ready per-shard view (drill reports, ``+stats`` footers)."""
        return {
            "states": [shard.state.value for shard in self._shards],
            "ejections": [shard.ejections for shard in self._shards],
            "consecutive_failures": [
                shard.consecutive_failures for shard in self._shards
            ],
        }

    # -- observations --------------------------------------------------------

    def on_success(self, index: int) -> bool:
        """A dispatch to ``index`` answered.  True at the rejoin edge.

        For HEALTHY/SUSPECT shards this just clears the failure run.  For
        an EJECTED shard it means the half-open probe succeeded: the
        shard becomes HEALTHY again and the caller must restore it to
        the ring.

        A success observed while EJECTED with *no* probe in flight is a
        straggler — a dispatch that left before the ejection and only
        completed after it.  That is evidence about the shard's past,
        not its present, so it is ignored: only the sanctioned
        half-open probe may rejoin an ejected shard (otherwise an
        in-flight response racing the ejection would instantly un-eject
        a genuinely dead shard).
        """
        shard = self._shards[index]
        if shard.state is ShardHealthState.EJECTED:
            if not shard.probe_inflight:
                return False  # straggler from before the ejection
            self.stats.probe_successes += 1
            self.stats.recoveries += 1
            shard.state = ShardHealthState.HEALTHY
            shard.consecutive_failures = 0
            shard.probe_inflight = False
            return True
        shard.state = ShardHealthState.HEALTHY
        shard.consecutive_failures = 0
        return False

    def on_failure(self, index: int) -> bool:
        """A dispatch to ``index`` failed.  True at the ejection edge.

        A failure observed while EJECTED with a probe in flight
        is the half-open probe failing: the shard stays out for another
        cooldown.  Without a probe in flight it is a straggler from
        before the ejection — it still restarts the cooldown (fresh
        failure evidence keeps the shard out longer) but is not counted
        against a probe that never ran.
        """
        shard = self._shards[index]
        self.stats.failures += 1
        if shard.state is ShardHealthState.EJECTED:
            if shard.probe_inflight:
                self.stats.probe_failures += 1
            self._restart_cooldown(shard)
            return False
        shard.consecutive_failures += 1
        if shard.consecutive_failures >= self.config.failure_threshold:
            self._eject(shard)
            return True
        shard.state = ShardHealthState.SUSPECT
        return False

    # -- half-open probe -----------------------------------------------------

    def allow_probe(self, index: int) -> bool:
        """May this query be the ejected shard's half-open probe?

        Grants at most one probe per cooldown window: the first caller
        after the cooldown gets the slot; everyone else keeps routing to
        the successors.  A probe whose outcome never came back (the
        dispatch path died without an observation) expires after one
        further cooldown so the shard cannot wedge out of the ring.
        """
        shard = self._shards[index]
        if shard.state is not ShardHealthState.EJECTED:
            return False
        now = self._clock.now()
        if now < shard.ejected_until:
            return False
        if shard.probe_inflight and (
            now - shard.probe_started < self.config.cooldown
        ):
            return False
        shard.probe_inflight = True
        shard.probe_started = now
        self.stats.probes += 1
        return True

    # -- internals -----------------------------------------------------------

    def _eject(self, shard: _ShardHealth) -> None:
        shard.state = ShardHealthState.EJECTED
        shard.ejections += 1
        self.stats.ejections += 1
        self._restart_cooldown(shard)

    def _restart_cooldown(self, shard: _ShardHealth) -> None:
        shard.ejected_until = self._clock.now() + self.config.cooldown
        shard.probe_inflight = False
