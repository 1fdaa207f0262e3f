"""Graceful-degradation serving layer: breakers, deadlines, shedding.

The paper's wild scan shows that real public resolvers *degrade* rather
than fail: Cloudflare answers with Stale Answer (3) and Stale NXDOMAIN
Answer (19) while an authoritative is unreachable, instead of burning
every client's patience re-timing-out the same dead servers.  This
module provides the machinery behind that behaviour, all of it driven
by the virtual clock so chaos drills replay exactly:

* :class:`CircuitBreaker` / :class:`BreakerBook` — per-server and
  per-zone breakers layered on the engine's
  :class:`~repro.resolver.server_stats.ServerStatsBook` observations.
  Consecutive timeouts or lame answers open a breaker; while open,
  queries to that target are short-circuited (straight to serve-stale)
  instead of spending the per-resolution query budget; after a
  cooldown a *single* half-open probe decides between re-closing and
  another cooldown.
* :class:`DeadlineBudget` — a client-facing deadline carried through a
  resolution.  Per-upstream timeouts shrink as the budget drains, so
  the resolver always returns its best degraded answer (stale with EDE
  3/19, or SERVFAIL with an accurate EDE) *before* the client would
  have given up.
* :class:`RefreshQueue` — stale-while-revalidate: serving a stale
  entry enqueues a bounded, deduplicated background refresh so
  repeated queries during an outage stay cheap and recovery is
  detected promptly.
* :class:`ResilientFrontend` — overload shedding and response rate
  limiting for the UDP frontend: a per-client token bucket plus a
  global in-flight cap.  Cache hits and stale answers are always
  served; cache-miss work beyond the cap is shed with REFUSED +
  Prohibited (18) or a truncate-to-TCP nudge; malformed datagrams get
  FORMERR instead of an exception.

Everything here is *opt-in*: a resolver constructed without a
:class:`ResilienceConfig` behaves exactly like the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..dns.ede import EdeCode
from ..dns.message import Message
from ..dns.rcode import Rcode
from ..net.clock import Clock
from ..net.endpoint import Endpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hints only)
    from .recursive import RecursiveResolver

#: Every INFO-CODE the resilience layer itself can emit: Stale Answer
#: (3) and Stale NXDOMAIN Answer (19) on degraded answers, Prohibited
#: (18) on shed queries.  ``tests/test_selfcheck.py`` cross-checks each
#: against the RFC 8914 registry and the vendor policy tables.
RESILIENCE_EDE_CODES: tuple[int, ...] = (
    int(EdeCode.STALE_ANSWER),
    int(EdeCode.PROHIBITED),
    int(EdeCode.STALE_NXDOMAIN_ANSWER),
)


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------


class BreakerState(Enum):
    """The classic three-state circuit-breaker machine."""

    CLOSED = "closed"  # traffic flows; failures are being counted
    OPEN = "open"  # short-circuit everything until the cooldown ends
    HALF_OPEN = "half-open"  # one probe in flight decides the next state


@dataclass
class BreakerConfig:
    """Knobs for one :class:`BreakerBook`."""

    #: Consecutive failures (timeouts, lame answers, unreachables) that
    #: trip a closed breaker open.
    failure_threshold: int = 3
    #: Virtual seconds an open breaker blocks traffic before allowing
    #: the half-open probe.
    cooldown: float = 30.0


@dataclass
class BreakerStats:
    """Counters across every breaker in one book."""

    opened: int = 0
    short_circuits: int = 0
    probes: int = 0
    probe_successes: int = 0
    probe_failures: int = 0


@dataclass
class CircuitBreaker:
    """State for one key (a server address or a ``zone/...`` label)."""

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    open_until: float = 0.0
    probe_inflight: bool = False
    probe_started: float = 0.0


class BreakerBook:
    """Per-key circuit breakers, fed by ServerStatsBook observations.

    Constructed with ``config=None`` the book is *disabled*: ``allow``
    always answers True and observations are dropped, so the seed
    (non-resilient) paths pay nothing and change nothing.
    """

    def __init__(self, clock: Clock, config: BreakerConfig | None = None, obs=None):
        self._clock = clock
        self.config = config
        self._breakers: dict[str, CircuitBreaker] = {}
        self.stats = BreakerStats()
        from ..obs import NULL_OBS

        self.obs = obs if obs is not None else NULL_OBS
        self._m_transitions = self.obs.counter("repro_breaker_transitions_total")

    @property
    def enabled(self) -> bool:
        return self.config is not None

    def _entry(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker()
            self._breakers[key] = breaker
        return breaker

    def allow(self, key: str) -> bool:
        """May we send traffic to ``key`` right now?

        OPEN breakers deny (and count a short-circuit) until the
        cooldown has elapsed; the first caller after the cooldown gets
        the single half-open probe slot.
        """
        if self.config is None:
            return True
        breaker = self._breakers.get(key)
        if breaker is None or breaker.state is BreakerState.CLOSED:
            return True
        now = self._clock.now()
        if breaker.state is BreakerState.OPEN:
            if now < breaker.open_until:
                self.stats.short_circuits += 1
                return False
            breaker.state = BreakerState.HALF_OPEN
            breaker.probe_inflight = False
            self._m_transitions.labels(transition="half_open").inc()
        # HALF_OPEN: exactly one probe at a time.  A probe that never
        # reported back (its query path died without an observation)
        # expires after one cooldown so the breaker cannot wedge shut.
        if breaker.probe_inflight and (
            now - breaker.probe_started < self.config.cooldown
        ):
            self.stats.short_circuits += 1
            return False
        breaker.probe_inflight = True
        breaker.probe_started = now
        self.stats.probes += 1
        self._m_transitions.labels(transition="probe").inc()
        return True

    # -- ServerStatsBook listener protocol ---------------------------------

    def on_success(self, key: str) -> None:
        if self.config is None:
            return
        breaker = self._breakers.get(key)
        if breaker is None:
            return
        if breaker.state is BreakerState.HALF_OPEN:
            self.stats.probe_successes += 1
        if breaker.state is not BreakerState.CLOSED:
            self._m_transitions.labels(transition="close").inc()
        breaker.state = BreakerState.CLOSED
        breaker.consecutive_failures = 0
        breaker.probe_inflight = False

    def on_failure(self, key: str) -> None:
        if self.config is None:
            return
        breaker = self._entry(key)
        breaker.consecutive_failures += 1
        if breaker.state is BreakerState.HALF_OPEN:
            self.stats.probe_failures += 1
            self._open(breaker)
        elif (
            breaker.state is BreakerState.CLOSED
            and breaker.consecutive_failures >= self.config.failure_threshold
        ):
            self._open(breaker)

    def _open(self, breaker: CircuitBreaker) -> None:
        breaker.state = BreakerState.OPEN
        breaker.open_until = self._clock.now() + self.config.cooldown
        breaker.probe_inflight = False
        self.stats.opened += 1
        self._m_transitions.labels(transition="open").inc()

    # -- inspection ---------------------------------------------------------

    def state_of(self, key: str) -> BreakerState:
        breaker = self._breakers.get(key)
        return breaker.state if breaker is not None else BreakerState.CLOSED

    def snapshot(self) -> dict[str, CircuitBreaker]:
        return dict(self._breakers)

    def open_keys(self) -> list[str]:
        return sorted(
            key
            for key, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )

    def __len__(self) -> int:
        return len(self._breakers)


# ---------------------------------------------------------------------------
# Deadline budgets
# ---------------------------------------------------------------------------


class DeadlineBudget:
    """A client-facing deadline propagated through a resolution.

    The engine clamps each upstream timeout to what is left of the
    budget, and aborts (cheaply, without sending) once it is spent —
    guaranteeing the degraded answer reaches the client *before* the
    client's own timer would have fired.
    """

    __slots__ = ("_clock", "deadline", "reported")

    #: Never hand the fabric a zero/negative timeout: the last sliver of
    #: budget still buys one very impatient query.
    MIN_TIMEOUT = 0.05

    def __init__(self, clock: Clock, deadline: float):
        self._clock = clock
        self.deadline = deadline
        #: The DEADLINE_EXHAUSTED event is recorded once per resolution.
        self.reported = False

    @classmethod
    def after(cls, clock: Clock, seconds: float) -> "DeadlineBudget":
        return cls(clock, clock.now() + seconds)

    def remaining(self) -> float:
        return max(0.0, self.deadline - self._clock.now())

    @property
    def expired(self) -> bool:
        return self._clock.now() >= self.deadline

    def clamp(self, timeout: float) -> float:
        """Shrink ``timeout`` to the remaining budget (with a floor)."""
        return max(self.MIN_TIMEOUT, min(timeout, self.remaining()))


# ---------------------------------------------------------------------------
# Stale-while-revalidate
# ---------------------------------------------------------------------------


@dataclass
class RefreshStats:
    enqueued: int = 0
    deduplicated: int = 0
    shed_full: int = 0
    refreshed: int = 0
    retried: int = 0


class RefreshQueue:
    """Bounded, deduplicated queue of (qname, rdtype) refresh work.

    Serving a stale answer enqueues its key here; the resolver drains a
    few entries per client query.  A key already queued is a no-op (the
    dedup mirrors the single-flight machinery the refresh itself rides
    through), and a full queue sheds new work instead of growing —
    during a mass outage the queue holds at most ``capacity`` names,
    not one per client query.
    """

    def __init__(
        self,
        clock: Clock,
        capacity: int = 256,
        retry_interval: float = 30.0,
    ):
        self._clock = clock
        self.capacity = capacity
        self.retry_interval = retry_interval
        #: key -> virtual time before which the refresh must not run.
        self._pending: dict[tuple, float] = {}
        self.stats = RefreshStats()

    def enqueue(self, key: tuple) -> bool:
        if key in self._pending:
            self.stats.deduplicated += 1
            return False
        if len(self._pending) >= self.capacity:
            self.stats.shed_full += 1
            return False
        self._pending[key] = self._clock.now()
        self.stats.enqueued += 1
        return True

    def due(self, limit: int) -> list[tuple]:
        """Up to ``limit`` keys whose not-before time has passed."""
        if limit <= 0 or not self._pending:
            return []
        now = self._clock.now()
        return [key for key, at in self._pending.items() if at <= now][:limit]

    def reschedule(self, key: tuple) -> None:
        """The refresh failed (still stale): try again later."""
        if key in self._pending:
            self._pending[key] = self._clock.now() + self.retry_interval
            self.stats.retried += 1

    def done(self, key: tuple) -> None:
        if self._pending.pop(key, None) is not None:
            self.stats.refreshed += 1

    def __len__(self) -> int:
        return len(self._pending)


# ---------------------------------------------------------------------------
# Resolver-side configuration bundle
# ---------------------------------------------------------------------------


@dataclass
class ResilienceConfig:
    """Everything a :class:`RecursiveResolver` needs to degrade gracefully."""

    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Client-facing deadline per query, virtual seconds; 0 disables the
    #: budget (breakers and revalidation still apply).
    client_deadline: float = 5.0


# ---------------------------------------------------------------------------
# UDP frontend: token buckets, in-flight caps, shed responses
# ---------------------------------------------------------------------------


class TokenBucket:
    """A virtual-time token bucket (the classic RRL building block).

    Refill is hardened against irregular clock observations: a shared
    bucket read from concurrent lanes can see time *backwards* (lane B
    is virtually earlier than the lane A that last touched it), and
    phase transitions in the load scenarios leap the clock minutes at a
    time.  Negative elapsed time must not drain tokens or rewind
    ``last`` (which would later double-refill), and a huge jump must
    saturate at ``burst``, never overshoot.  Invariant, checked by a
    hypothesis property test: ``0 <= tokens <= max(burst, n_initial)``
    across arbitrary jump sequences.
    """

    __slots__ = ("_clock", "rate", "burst", "tokens", "last")

    def __init__(
        self, clock: Clock, rate: float, burst: float, now: float | None = None
    ):
        self._clock = clock
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = clock.now() if now is None else now

    def take(self, n: float = 1.0, now: float | None = None) -> bool:
        """Spend ``n`` tokens, refilled up to ``now`` (the clock's time
        when not given); whether there were enough."""
        if now is None:
            now = self._clock.now()
        elapsed = now - self.last
        if elapsed > 0.0:
            tokens = self.tokens + elapsed * self.rate
            self.tokens = tokens if tokens < self.burst else self.burst
            self.last = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


@dataclass
class FrontendConfig:
    """Shed policy for one :class:`ResilientFrontend`."""

    #: Per-client refill rate (queries per virtual second) and burst.
    client_rate: float = 20.0
    client_burst: float = 40.0
    #: Global cap on concurrent cache-miss resolutions.
    max_inflight: int = 64
    #: Every Nth shed answer is TC=1 (truncate-to-TCP retry nudge, the
    #: RRL "slip" mechanic) instead of REFUSED; 0 means always REFUSED.
    truncate_every: int = 0
    #: Bound on the per-client bucket table (oldest evicted beyond it).
    max_clients: int = 4096
    #: Drain a few background refreshes after each answered datagram.
    #: Hosts that account for background work separately (the load
    #: engine) turn this off and call ``resolver.run_refreshes()``
    #: themselves.
    inline_refreshes: bool = True


#: The closed vocabulary of shed reasons, as exposed on the
#: ``repro_frontend_shed_total`` metric's ``reason`` label and in
#: :meth:`FrontendStats.snapshot`: per-client token-bucket response rate
#: limiting, the global in-flight cap, and malformed queries (the FORMERR
#: a door makes: undecodable, or no question).
SHED_REASONS: tuple[str, ...] = ("rrl", "inflight-cap", "garbage")


@dataclass
class FrontendStats:
    #: Queries received, at any door.
    datagrams: int = 0
    answered: int = 0
    formerr: int = 0
    served_cached: int = 0  # always-served path: fresh/negative/stale hits
    shed_refused: int = 0
    shed_truncated: int = 0
    bucket_sheds: int = 0
    inflight_sheds: int = 0
    handler_errors: int = 0
    inflight_peak: int = 0
    #: Datagrams answered straight from the rendered-wire cache (each
    #: also counted as the answered or shed query it replays).
    render_hits: int = 0
    #: reason -> count, same closed vocabulary as the metric label.
    shed_by_reason: dict = field(default_factory=dict)

    def shed(self, reason: str) -> None:
        if reason not in SHED_REASONS:
            raise ValueError(f"undocumented shed reason {reason!r}")
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    def snapshot(self) -> dict:
        """JSON-ready labeled view; every reason present, zeros included."""
        return {
            "datagrams": self.datagrams,
            "answered": self.answered,
            "served_cached": self.served_cached,
            "shed_refused": self.shed_refused,
            "shed_truncated": self.shed_truncated,
            "handler_errors": self.handler_errors,
            "inflight_peak": self.inflight_peak,
            "render_hits": self.render_hits,
            "shed_by_reason": {
                reason: self.shed_by_reason.get(reason, 0)
                for reason in SHED_REASONS
            },
        }


class ResilientFrontend(Endpoint):
    """Overload-shedding wrapper around a resolver.

    An :class:`~repro.net.endpoint.Endpoint` whose answer body is the
    shed policy, so it registers on the simulated fabric or binds a real
    UDP socket interchangeably, and its doors never raise.  Its counters
    and refresh drain run the same at all three doors.  Rule 0 of the
    datagram door serves a repeat query from the resolver's
    rendered-wire cache, received, charged, shed and counted exactly as
    the body would have answered the cache hit it replays.
    """

    recursion_available = True

    def __init__(
        self,
        resolver: "RecursiveResolver",
        config: FrontendConfig | None = None,
        clock: Clock | None = None,
    ):
        self.resolver = resolver
        self.config = config or FrontendConfig()
        self._clock = clock or resolver.clock
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight = 0
        self._shed_count = 0
        self.stats = FrontendStats()
        # Fake resolvers in tests may not carry an obs handle; degrade
        # to the null observability rather than demanding one.
        from ..obs import NULL_OBS

        self.obs = getattr(resolver, "obs", NULL_OBS)
        self._m_datagrams = self.obs.counter("repro_frontend_datagrams_total")
        self._m_shed = self.obs.counter("repro_frontend_shed_total")
        self._m_responses = self.obs.counter("repro_frontend_responses_total")
        self._m_served_cached = self.obs.counter(
            "repro_frontend_served_cached_total"
        )
        self._m_inflight = self.obs.gauge("repro_frontend_inflight")

    # -- shed policy ---------------------------------------------------------

    def _bucket(self, source: str, now: float | None = None) -> TokenBucket:
        """``source``'s bucket, made full at ``now`` if it has none."""
        bucket = self._buckets.get(source)
        if bucket is None:
            if len(self._buckets) >= self.config.max_clients:
                # Drop the oldest-inserted client to stay bounded.
                self._buckets.pop(next(iter(self._buckets)))
            bucket = TokenBucket(
                self._clock, self.config.client_rate, self.config.client_burst, now
            )
            self._buckets[source] = bucket
        return bucket

    def _shed_response(self, query: Message) -> Message:
        """REFUSED + Prohibited (18), or every Nth time a TC=1 nudge."""
        self._shed_count += 1
        response = query.make_response()
        if (
            self.config.truncate_every > 0
            and self._shed_count % self.config.truncate_every == 0
        ):
            response.tc = True
            self.stats.shed_truncated += 1
            if self.obs.enabled:
                self._m_responses.labels(outcome="truncated").inc()
            return response
        response.rcode = Rcode.REFUSED
        response.add_ede(int(EdeCode.PROHIBITED), "client rate limited")
        self.stats.shed_refused += 1
        if self.obs.enabled:
            self._m_responses.labels(outcome="refused").inc()
        return response

    def _sheds(self, source: str, now: float | None = None) -> bool:
        """Shed policy for one query received at ``now``: the in-flight
        cap first, without charging the client's bucket, then the
        bucket.  Counts the reason when it sheds."""
        if self._inflight >= self.config.max_inflight:
            reason = "inflight-cap"
            self.stats.inflight_sheds += 1
        else:
            bucket = self._buckets.get(source) or self._bucket(source, now)
            if bucket.take(1.0, now):
                return False
            reason = "rrl"
            self.stats.bucket_sheds += 1
        self.stats.shed(reason)
        if self.obs.enabled:
            self._m_shed.labels(reason=reason).inc()
        return True

    def _served_cached(self) -> None:
        self.stats.served_cached += 1
        if self.obs.enabled:
            self._m_served_cached.inc()
            self._m_responses.labels(outcome="cached").inc()

    def _in_flight(self, delta: int) -> None:
        """One more (+1) or one fewer (-1) resolution in flight."""
        self._inflight += delta
        self.stats.inflight_peak = max(self.stats.inflight_peak, self._inflight)
        if self.obs.enabled:
            self._m_inflight.set(self._inflight)

    def _answered(self) -> None:
        self.stats.answered += 1
        if self.obs.enabled:
            self._m_responses.labels(outcome="answered").inc()

    # -- endpoint -----------------------------------------------------------
    # Each query is received and drained once, at any door: a kept reply
    # in rule 0, else in the body or ``on_door_reply``.

    def _received(self) -> None:
        self.stats.datagrams += 1
        if self.obs.enabled:
            self._m_datagrams.inc()

    def _drain_refreshes(self) -> None:
        """Stale-while-revalidate: refresh entries whose staleness was
        just papered over.  A refresh blow-up never turns a built
        response into a SERVFAIL.  Hosts that schedule (and account for)
        that work themselves — the load engine — turn
        ``inline_refreshes`` off and drive ``resolver.run_refreshes()``."""
        if self.config.inline_refreshes:
            try:
                self.resolver.run_refreshes()
            except Exception:
                self.stats.handler_errors += 1

    def on_door_reply(self, rcode: int) -> None:
        """Count the door's own reply.  A SERVFAIL here is a raise out of
        the body, which already received the query, or out of rule 0,
        which received it only if the raise came after its render hit."""
        observed = self.obs.enabled
        if rcode == Rcode.SERVFAIL:
            self.stats.handler_errors += 1
            if observed:
                self._m_responses.labels(outcome="servfail").inc()
        else:
            self._received()
            if rcode == Rcode.FORMERR:
                self.stats.formerr += 1
                self.stats.shed(reason="garbage")
                if observed:
                    self._m_shed.labels(reason="garbage").inc()
                    self._m_responses.labels(outcome="formerr").inc()
            else:
                self._answered()
            self._drain_refreshes()

    #: Endpoint's datagram door, bound in this class body so that
    #: ``perf/layers.py`` can span the serve path's entry point here.
    handle_datagram = Endpoint.handle_datagram

    def stored_reply(self, wire: bytes, source: str) -> bytes | None:
        """Rule 0 through the resolver's :meth:`render_hit`: the kept
        reply, received, charged, shed and counted exactly as
        :meth:`handle_query` would answer the cache hit it replays.  The
        bucket refills at the instant the hit was looked up at, so the
        frontend's clock is its resolver's (the default)."""
        hit = self.resolver.render_hit(wire)
        if hit is None:
            return None
        reply, note, now = hit
        stats = self.stats
        observed = self.obs.enabled
        stats.datagrams += 1  # received
        if observed:
            self._m_datagrams.inc()
        try:
            shed = self._sheds(source, now)
            if shed:
                self._served_cached()
            else:
                # In flight for no virtual time: the peak that
                # ``_in_flight(1)`` then ``_in_flight(-1)`` would leave,
                # the count never moved.
                inflight = self._inflight
                if inflight >= stats.inflight_peak:
                    stats.inflight_peak = inflight + 1
                stats.answered += 1
                if observed:
                    self._m_inflight.set(inflight)
                    self._m_responses.labels(outcome="answered").inc()
            self.resolver.count_render_hit(note, shed)
            stats.render_hits += 1
            return reply
        finally:
            self._drain_refreshes()

    def keep_reply(self, wire: bytes, reply: Message, encoded: bytes) -> None:
        self.resolver.keep_reply(wire, reply, encoded)

    def handle_query(self, query: Message, source: str) -> Message:
        """The answer body: shed policy in front of the resolver's, then
        the refresh drain."""
        self._received()
        try:
            if self._sheds(source):
                # Cache hits and stale answers are always served — shedding
                # only protects the expensive cache-miss resolution path.
                cached = self.resolver.answer_from_cache(query)
                if cached is None:
                    return self._shed_response(query)
                self._served_cached()
                return cached
            self._in_flight(1)
            try:
                response = self.resolver.handle_query(query, source)
            finally:
                self._in_flight(-1)
            self._answered()
            return response
        finally:
            self._drain_refreshes()
