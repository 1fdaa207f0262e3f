"""The client-facing recursive resolver.

Ties together the iterative engine, the cache, the DNSSEC validator,
and a vendor EDE policy.  One instance per vendor profile; all
instances share the same fabric, so a testbed query plan can ask all
seven "resolvers" about the same misconfigured domain exactly like the
paper does.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..dns.dnssec_records import DS
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.render import wire_key
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.trace import (
    EventRecord,
    FailureReason,
    ResolutionEvent,
    ResolutionOutcome,
    Role,
    ValidationState,
    ValidationTrace,
)
from ..dnssec.validator import FetchResult, Validator
from ..net.clock import Clock
from ..net.endpoint import Endpoint
from ..net.fabric import NetworkFabric
from ..net.ttl_store import TtlStore
from ..obs import NULL_OBS, Observability, TraceEventKind
from .cache import STALE_TTL, CacheConfig, RenderedWireCache, ResolverCache
from .ede_policy import EdePolicy
from .iterative import EngineConfig, IterativeEngine
from .profiles import ResolverProfile
from .resilience import DeadlineBudget, RefreshQueue, ResilienceConfig

#: Background refreshes attempted after each client query.
REFRESH_PER_QUERY = 1


@dataclass
class ResolverStats:
    queries: int = 0
    servfail: int = 0
    nxdomain: int = 0
    with_ede: int = 0
    validated_secure: int = 0
    validated_bogus: int = 0
    #: Resolutions aborted by the per-resolution query budget
    #: (anti-amplification guard in the iterative engine).
    budget_exhausted: int = 0
    #: Client resolutions that parked on another lane's identical
    #: in-flight resolution instead of launching their own (the
    #: single-flight pattern; only possible under concurrent lanes).
    coalesced: int = 0
    #: Infrastructure fetches (DNSKEYs, DS sets, referral glue) that
    #: piggybacked on an identical in-flight fetch from another lane.
    coalesced_infra: int = 0
    #: Infrastructure-record cache outcomes (TLD referrals, DNSKEYs
    #: shared across resolutions via the infra cache).
    infra_hits: int = 0
    infra_misses: int = 0
    #: Degraded answers served from the stale cache (RFC 8767): positive
    #: (EDE 3 under profiles that map it) and negative (EDE 19).
    stale_served: int = 0
    stale_nxdomain_served: int = 0
    #: Client resolutions that hit the deadline budget before finishing.
    deadline_hits: int = 0
    #: Stale-while-revalidate: background refreshes attempted/completed.
    refreshes: int = 0
    refreshed_ok: int = 0
    #: Rendered-wire cache outcomes on the datagram path: hits served
    #: straight from patched bytes (zero Message work; each also counts
    #: as the answer it replays, but not as an answer-cache hit), and
    #: responses stored.
    render_hits: int = 0
    render_stores: int = 0


class _Rendered(NamedTuple):
    """What a kept reply replays beside its bytes: the answer-cache entry
    it was rendered from, and the labels of what its answer counted."""

    kind: str
    key: tuple[Name, int]
    entry: tuple  # (value, expires_at, owner), as the cache's ``put`` made it
    rcode: str
    ede_codes: tuple[str, ...]


#: Infrastructure fetch results one resolver keeps (one per
#: ``(zone, qname, type)`` fetched within the last ``_infra_ttl``).
INFRA_CACHE_CAPACITY = 100_000

#: What a cluster's shared L2 tier keeps of its shards' infrastructure
#: fetches; expired entries fall out first, then the oldest.
L2_CACHE_CAPACITY = 8192


class _Flight:
    """Marker for one in-flight upstream fetch (single-flight dedup).

    ``done`` flips in a ``finally`` with the lane token held, so waiters
    parked on it via :meth:`Clock.wait_virtual` observe a consistent
    final state — including when the owner unwinds on an exception.
    """

    __slots__ = ("done", "outcome")

    def __init__(self):
        self.done = False
        self.outcome = None


class RecursiveResolver(Endpoint):
    """A validating, caching recursive resolver with one vendor's EDE policy."""

    recursion_available = True

    def __init__(
        self,
        fabric: NetworkFabric,
        profile: ResolverProfile,
        root_hints: list[str],
        trust_anchors: list[DS] | None = None,
        engine_config: EngineConfig | None = None,
        source_ip: str | None = None,
        validate: bool = True,
        local_policy: "LocalPolicy | None" = None,
        error_reporting: bool = False,
        resilience: ResilienceConfig | None = None,
        cache_config: CacheConfig | None = None,
        obs: Observability | None = None,
        l2: "SharedL2Cache | None" = None,
    ):
        self.fabric = fabric
        self.profile = profile
        self.clock: Clock = fabric.clock
        self.obs = obs or NULL_OBS
        #: Metric/trace label: the short vendor key ("bind", "unbound", ...)
        #: — the same key ``run_matrix`` files results under.
        self._obs_profile = profile.policy.name
        self._m_queries = self.obs.counter("repro_resolver_queries_total")
        self._m_responses = self.obs.counter("repro_resolver_responses_total")
        self._m_ede = self.obs.counter("repro_resolver_ede_total")
        self._m_cache_hits = self.obs.counter("repro_resolver_cache_hits_total")
        self._m_render = self.obs.counter("repro_resolver_render_hits_total")
        self._m_stale = self.obs.counter("repro_resolver_stale_served_total")
        self._m_coalesced = self.obs.counter("repro_resolver_coalesced_total")
        self._m_infra = self.obs.counter("repro_resolver_infra_fetch_total")
        self._m_validation = self.obs.counter("repro_resolver_validation_total")
        self._m_latency = self.obs.histogram("repro_resolver_resolve_virtual_seconds")
        engine_config = engine_config or EngineConfig()
        if source_ip:
            engine_config = dataclasses.replace(engine_config, source_ip=source_ip)
        elif profile.service_address:
            engine_config = dataclasses.replace(
                engine_config, source_ip=profile.service_address
            )
        if resilience is not None and engine_config.breaker is None:
            engine_config = dataclasses.replace(
                engine_config, breaker=resilience.breaker
            )
        self.engine = IterativeEngine(fabric, root_hints, engine_config, obs=self.obs)
        #: Cache policy resolution: an explicit ``cache_config`` wins;
        #: otherwise the profile's transcription of the vendor's cache
        #: behaviour applies (serving front ends pass
        #: :func:`repro.resolver.cache.default_cache_config`).
        self.cache = ResolverCache(self.clock, cache_config or profile.cache)
        self.resilience = resilience
        self._refresh: RefreshQueue | None = None
        if resilience is not None:
            self._refresh = RefreshQueue(self.clock)
        #: Reentrancy guard: a background refresh must not enqueue more
        #: refresh work (or recurse into run_refreshes) when it, too,
        #: can only come up with a stale answer.
        self._refreshing = False
        self.validate_enabled = validate
        validator_config = dataclasses.replace(
            profile.validator, trust_anchors=list(trust_anchors or [])
        )
        self.validator = Validator(validator_config, _ValidatorSource(self))
        self.policy: EdePolicy = profile.policy
        self.local_policy = local_policy
        self.reporter = None
        if error_reporting:
            from .error_reporting import ErrorReporter

            self.reporter = ErrorReporter(self.clock)
        self.stats = ResolverStats()
        #: Rendered-response wire cache, rule 0 of the datagram door (see
        #: :mod:`repro.dns.render`): a repeat wire query whose answer is
        #: still the answer cache's is served from stored bytes with only
        #: the ID rewritten and answer TTLs re-derived from the *same*
        #: fractional expiry ``get_rrset`` decrements against.
        self.render_cache = RenderedWireCache(self.clock)
        #: Per-lane render plan: which answer-cache entry, of what kind,
        #: produced the response being encoded, and its fractional
        #: expiry.  Only responses derived from a cache hit are
        #: wire-cacheable — every other path mutates state (stats,
        #: refresh queues) or depends on upstream work.
        self._render_tls = threading.local()
        #: ``(zone, qname, type)`` -> FetchResult.
        self._infra_cache = TtlStore(self.clock, INFRA_CACHE_CAPACITY)
        self._infra_ttl = 300.0
        #: Everything :meth:`flush_caches` must forget.
        self._stores = [self.cache, self._infra_cache, self.render_cache]
        #: Optional cluster-shared L2 tier for infra fetch results (see
        #: :class:`repro.cluster.SharedL2Cache`): consulted read-through
        #: on an L1 miss, published to on every fresh fetch.  None when
        #: this resolver runs standalone — the seed behaviour.
        self._l2 = l2
        #: Per-lane (thread-local) event sink: a validator fetch mid-way
        #: through lane A's resolution must not leak events into lane
        #: B's concurrently running resolution.
        self._events_tls = threading.local()
        #: Per-lane deadline budget, so validator fetches triggered from
        #: inside a resolution inherit the client's remaining patience.
        self._deadline_tls = threading.local()
        #: Single-flight registries (key -> _Flight).  Mutated only with
        #: the lane token held; on the sequential path a key can never
        #: be observed in flight, so these are no-ops there.
        self._client_flights: dict[tuple[Name, int, bool], _Flight] = {}
        self._infra_flights: dict[tuple[Name, Name, int], _Flight] = {}

    @property
    def server_stats(self):
        """The engine's per-server quality book (SRTT, lameness)."""
        return self.engine.server_stats

    # -- public API ---------------------------------------------------------------

    def resolve(
        self,
        qname: Name | str,
        rdtype: RdataType | str = RdataType.A,
        *,
        want_dnssec: bool = False,
        checking_disabled: bool = False,
    ) -> Message:
        """Resolve like a stub client would ask us to; returns the full
        response message including any EDE options the profile emits."""
        query = Message.make_query(
            qname, rdtype, want_dnssec=want_dnssec, recursion_desired=True,
            rng=self.engine.rng,
        )
        query.cd = checking_disabled
        return self.handle_query(query)

    def handle_query(self, query: Message, source: str = "") -> Message:
        if not self.obs.enabled:
            return self._handle_query(query, source)
        question = query.question[0]
        self._m_queries.labels(profile=self._obs_profile).inc()
        started = self.clock.now()
        trace = self.obs.begin_trace(
            str(question.name), str(question.rdtype), self._obs_profile
        )
        try:
            response = self._handle_query(query, source)
            self._observe_response(trace, response, started)
            return response
        finally:
            self.obs.end_trace(trace)

    def _observe_response(self, trace, response: Message, started: float) -> None:
        """Metrics + trace tail for one finished client response."""
        label = self._obs_profile
        self._m_responses.labels(
            profile=label, rcode=Rcode(response.rcode).name
        ).inc()
        for option in response.extended_errors:
            self._m_ede.labels(profile=label, code=str(int(option.info_code))).inc()
        self._m_latency.labels(profile=label).observe(self.clock.now() - started)
        if trace is None:
            return
        for option in response.extended_errors:
            self.obs.trace_event(
                TraceEventKind.EDE,
                code=int(option.info_code),
                extra_text=option.extra_text,
            )
        end_attrs: dict = {
            "rcode": int(response.rcode),
            "answers": len(response.answer),
        }
        if any(
            str(event.attrs.get("event", "")).startswith("STALE_")
            for event in trace.events_of(TraceEventKind.EVENT)
        ):
            end_attrs["stale"] = True
        if trace.events_of(TraceEventKind.CACHE_HIT):
            end_attrs["from_cache"] = True
        self.obs.trace_event(TraceEventKind.END, **end_attrs)

    def _handle_query(self, query: Message, source: str = "") -> Message:
        self.stats.queries += 1
        question = query.question[0]
        qname, rdtype = question.name, question.rdtype
        if self.local_policy is not None:
            decision = self.local_policy.evaluate(qname)
            if decision is not None:
                return self._apply_local_policy(query, qname, rdtype, decision)
        deadline: DeadlineBudget | None = None
        if self.resilience is not None and self.resilience.client_deadline > 0:
            deadline = DeadlineBudget.after(
                self.clock, self.resilience.client_deadline
            )
        outcome = self._resolve_outcome(
            qname, rdtype, checking_disabled=query.cd, deadline=deadline
        )
        response = self._build_response(query, outcome)
        if self.reporter is not None and response.ede_codes:
            self._report_errors(qname, rdtype, response.ede_codes)
        return response

    def _report_errors(self, qname: Name, rdtype, ede_codes) -> None:
        """RFC 9567: tell the zone's monitoring agent about the failure."""
        agent = self.engine.report_channel_for(qname)
        if agent is None or qname.is_subdomain_of(agent):
            return  # no channel, or we would report about the report
        for info_code in ede_codes:
            if not self.reporter.should_report(qname, rdtype, info_code, agent):
                continue
            report = self.reporter.build_report_query(qname, rdtype, info_code, agent)
            events: list[EventRecord] = []
            result = self.engine.resolve(
                report.question[0].name, RdataType.TXT, events
            )
            if result.ok:
                self.reporter.stats.reports_sent += 1
            else:
                self.reporter.stats.failed += 1

    def _apply_local_policy(self, query: Message, qname: Name, rdtype, decision) -> Message:
        """Synthesize the RPZ-style answer local policy demands."""
        from ..dns.rdata import A, AAAA
        from .policy import ACTION_EDE, PolicyAction

        response = query.make_response()
        response.rcode = decision.rcode
        if decision.action is PolicyAction.FORGE and rdtype in (
            RdataType.A, RdataType.AAAA,
        ):
            forged = decision.rule.forged_address
            rdata = AAAA(address=forged) if ":" in forged else A(address=forged)
            if (rdtype == RdataType.A) == (":" not in forged):
                response.answer.append(RRset.of(qname, rdtype, rdata, ttl=30))
        emission = self.policy.policy_emission(
            ACTION_EDE[decision.action], decision.rule.reason
        )
        if emission is not None and response.add_ede(emission.code, emission.extra_text):
            self.stats.with_ede += 1
        return response

    # -- rule 0 of the datagram door: the rendered-wire cache -------------------------

    def stored_reply(self, wire: bytes, source: str) -> bytes | None:
        """A repeat query the rendered-wire cache covers: the kept reply,
        counted as :meth:`handle_query` counts the cache hit it replays."""
        hit = self.render_lookup(wire)
        if hit is None:
            return None
        self.count_render_hit(hit[1])
        return hit[0]

    def keep_reply(self, wire: bytes, reply: Message, encoded: bytes) -> None:
        """Keep ``encoded`` iff this datagram's answer came straight from
        the answer cache (the only byte-stable paths), noting the entry
        it came from and what its answer counted.  Positive hits
        decrement their answer TTLs against the entry's fractional
        expiry; negative hits replay stored authority TTLs verbatim;
        error hits carry no records.  The wire expires exactly when the
        entry does.  A resolver that reports errors (RFC 9567) keeps no
        reply carrying EDE: each such answer may owe a report."""
        plan = getattr(self._render_tls, "plan", None)
        if plan is None:
            return
        self._render_tls.plan = None
        kind, key, entry = plan
        expires_at = entry[1]
        ede_codes = tuple(str(int(option.info_code)) for option in reply.extended_errors)
        if ede_codes and self.reporter is not None:
            return
        if self.render_cache.store(
            wire_key(wire),
            encoded,
            expires_at=expires_at,
            decrement_answers_until=expires_at if kind == "positive" else None,
            note=_Rendered(kind, key, entry, Rcode(reply.rcode).name, ede_codes),
        ):
            self.stats.render_stores += 1

    def render_lookup(self, wire: bytes) -> tuple[bytes, _Rendered] | None:
        """The kept reply to ``wire`` patched for it, and its note, while
        the answer-cache entry it was rendered from still answers the
        question; else None, with this lane's render plan cleared for the
        body about to run.  Counts nothing."""
        key = wire_key(wire)
        hit = None if key is None else self.render_cache.serve(key, wire)
        if hit is not None:
            note = hit[1]
            if self.cache.answers_from(note.kind, note.key, note.entry):
                return hit
        self._render_tls.plan = None
        return None

    def count_render_hit(self, note: _Rendered, shed: bool = False) -> None:
        """Count a kept reply served as the cache-hit answer it replays:
        as :meth:`handle_query` counts one, or — ``shed`` — as
        :meth:`answer_from_cache` does for a frontend that shed the
        query.  Only the render-hit counters add to that; the answer
        cache was never consulted and counts no hit."""
        self.stats.queries += 1
        self.stats.render_hits += 1
        if note.ede_codes:
            self.stats.with_ede += 1
        if not self.obs.enabled:
            return
        label = self._obs_profile
        self._m_render.labels(profile=label).inc()
        if shed:
            return
        self._m_queries.labels(profile=label).inc()
        self._m_responses.labels(profile=label, rcode=note.rcode).inc()
        for code in note.ede_codes:
            self._m_ede.labels(profile=label, code=code).inc()
        self._m_latency.labels(profile=label).observe(0.0)  # a hit takes no virtual time

    def _render_note(self, kind: str, qname: Name, rdtype) -> None:
        """Record that the outcome being built came from a ``kind``
        cache hit, and the entry it was served from."""
        key = (qname, int(rdtype))
        entry = self.cache.entry(kind, key)
        self._render_tls.plan = (kind, key, entry)

    # -- resolution pipeline ------------------------------------------------------------

    def _resolve_outcome(
        self,
        qname: Name,
        rdtype: RdataType,
        checking_disabled: bool = False,
        deadline: DeadlineBudget | None = None,
    ) -> ResolutionOutcome:
        outcome = self._outcome_from_cache(qname, rdtype)
        if outcome is not None:
            return outcome

        # Single-flight: when another lane is already resolving this
        # exact question, park until it finishes and serve its result
        # (usually via the cache it just populated).  ``wait_virtual``
        # returns False outside concurrent lanes, where an in-flight
        # duplicate is impossible anyway.  The wait is bounded by the
        # client's deadline: a parked lane still owes its client an
        # answer before their timer fires, so on expiry it stops
        # waiting and degrades (the spent budget makes the resolve
        # below abort upstream work and fall straight to serve-stale).
        key = (qname, int(rdtype), bool(checking_disabled))
        flight = self._client_flights.get(key)
        if flight is not None and self.clock.wait_virtual(
            lambda: flight.done,
            wake_at=deadline.deadline if deadline is not None else None,
        ):
            if flight.done:
                self.stats.coalesced += 1
                if self.obs.enabled:
                    self._m_coalesced.labels(
                        profile=self._obs_profile, level="client"
                    ).inc()
                    self.obs.trace_event(TraceEventKind.COALESCED, level="client")
                outcome = self._outcome_from_cache(qname, rdtype)
                if outcome is not None:
                    return outcome
                if flight.outcome is not None:
                    return flight.outcome
                # Owner failed without caching anything; resolve ourselves.

        own = _Flight()
        # Claim the single-flight slot unless a live owner still holds it
        # (deadline bail-out above): their waiters must keep a marker
        # that actually flips when the owner finishes.
        current = self._client_flights.get(key)
        claimed = current is None or current.done
        if claimed:
            self._client_flights[key] = own
        try:
            outcome = self._resolve_uncached(qname, rdtype, checking_disabled, deadline)
            own.outcome = outcome
            return outcome
        finally:
            own.done = True
            if claimed and self._client_flights.get(key) is own:
                self._client_flights.pop(key, None)

    def _outcome_from_cache(
        self, qname: Name, rdtype: RdataType
    ) -> ResolutionOutcome | None:
        """Error/positive/negative cache probe, in that order, or None."""
        error = self.cache.get_error(qname, rdtype)
        if error is not None:
            outcome = ResolutionOutcome()
            outcome.rcode = error.rcode
            outcome.from_cache = True
            record = EventRecord(
                ResolutionEvent.CACHED_ERROR_SERVED,
                qname=qname,
                rdtype=str(rdtype),
                detail=error.detail,
            )
            outcome.events.append(record)
            outcome.validation = ValidationTrace.insecure()
            self._note_cache_hit("error", record)
            self._render_note("error", qname, rdtype)
            return outcome

        cached = self.cache.get_rrset(qname, rdtype)
        if cached is not None:
            outcome = ResolutionOutcome()
            outcome.rcode = Rcode.NOERROR
            outcome.answer_rrsets = [cached]
            outcome.from_cache = True
            outcome.validation = ValidationTrace.insecure()
            self._note_cache_hit("positive")
            # Keyed by the stored RRset's own name: the store's key holds
            # that object, so the render guard's lookup compares by identity.
            self._render_note("positive", cached.name, rdtype)
            return outcome
        negative = self.cache.get_negative(qname, rdtype)
        if negative is not None:
            outcome = ResolutionOutcome()
            outcome.rcode = negative.rcode
            outcome.authority_rrsets = list(negative.authority)
            outcome.from_cache = True
            outcome.validation = ValidationTrace.insecure()
            self._note_cache_hit("negative")
            self._render_note("negative", qname, rdtype)
            return outcome
        return None

    def _note_cache_hit(self, kind: str, record: EventRecord | None = None) -> None:
        if not self.obs.enabled:
            return
        self._m_cache_hits.labels(profile=self._obs_profile, kind=kind).inc()
        self.obs.trace_event(TraceEventKind.CACHE_HIT, hit=kind)
        if record is not None:
            self.obs.trace_event_record(record)

    def _resolve_uncached(
        self,
        qname: Name,
        rdtype: RdataType,
        checking_disabled: bool,
        deadline: DeadlineBudget | None = None,
    ) -> ResolutionOutcome:
        outcome = ResolutionOutcome()
        events: list[EventRecord] = []
        self._events_tls.active = events
        self._deadline_tls.active = deadline
        try:
            iteration = self.engine.resolve(qname, rdtype, events, deadline=deadline)

            if not iteration.ok and iteration.rcode == Rcode.SERVFAIL:
                outcome.rcode = Rcode.SERVFAIL
                outcome.events = events
                if any(
                    record.event is ResolutionEvent.QUERY_BUDGET_EXCEEDED
                    for record in events
                ):
                    self.stats.budget_exhausted += 1
                if any(
                    record.event is ResolutionEvent.DEADLINE_EXHAUSTED
                    for record in events
                ):
                    self.stats.deadline_hits += 1
                if iteration.failed_signed_zone:
                    outcome.validation = ValidationTrace.bogus(
                        FailureReason.DNSKEY_UNFETCHABLE,
                        Role.TRANSPORT,
                        zone=iteration.failed_zone,
                    )
                else:
                    outcome.validation = ValidationTrace.insecure()
                self._maybe_serve_stale(qname, rdtype, outcome)
                if not outcome.stale:
                    self.cache.put_error(qname, rdtype, Rcode.SERVFAIL)
                self.stats.servfail += 1
                return outcome

            outcome.rcode = iteration.rcode
            outcome.answer_rrsets = iteration.answer
            outcome.authority_rrsets = iteration.authority
            outcome.events = events

            if self.validate_enabled and not checking_disabled and iteration.zone_path:
                now = int(self.clock.now())
                relevant_answer = [
                    rrset
                    for rrset in iteration.answer
                    if rrset.name == qname or rrset.rdtype == RdataType.RRSIG
                ]
                trace = self.validator.validate(
                    qname,
                    rdtype,
                    iteration.zone_path,
                    relevant_answer or iteration.answer,
                    iteration.authority,
                    iteration.rcode,
                    now,
                )
                outcome.validation = trace
                if self.obs.enabled:
                    state = trace.state.name.lower()
                    self._m_validation.labels(
                        profile=self._obs_profile, state=state
                    ).inc()
                    attrs: dict = {"state": state}
                    if trace.reason is not None:
                        attrs["reason"] = trace.reason.name
                    if trace.role is not None:
                        attrs["role"] = trace.role.name
                    if trace.zone is not None:
                        attrs["zone"] = str(trace.zone)
                    self.obs.trace_event(TraceEventKind.VALIDATION, **attrs)
                if trace.is_bogus:
                    self.stats.validated_bogus += 1
                    outcome.rcode = Rcode.SERVFAIL
                    outcome.answer_rrsets = []
                    outcome.authority_rrsets = []
                    self._maybe_serve_stale(qname, rdtype, outcome)
                    if not outcome.stale:
                        self.cache.put_error(
                            qname, rdtype, Rcode.SERVFAIL, detail="validation failure"
                        )
                    self.stats.servfail += 1
                    return outcome
                if trace.is_secure:
                    self.stats.validated_secure += 1
            else:
                outcome.validation = ValidationTrace.insecure()

            self._store_in_cache(qname, rdtype, outcome)
            if outcome.rcode == Rcode.NXDOMAIN:
                self.stats.nxdomain += 1
            return outcome
        finally:
            self._events_tls.active = None
            self._deadline_tls.active = None

    def _maybe_serve_stale(
        self, qname: Name, rdtype: RdataType, outcome: ResolutionOutcome
    ) -> None:
        stale = self.cache.get_stale_rrset(qname, rdtype)
        if stale is not None:
            outcome.rcode = Rcode.NOERROR
            outcome.answer_rrsets = [stale]
            outcome.stale = True
            record = EventRecord(
                ResolutionEvent.STALE_ANSWER_SERVED, qname=qname, rdtype=str(rdtype)
            )
            outcome.events.append(record)
            if self.obs.enabled:
                self.obs.trace_event_record(record)
            if not self._refreshing:  # stats count client-visible stales only
                self.stats.stale_served += 1
                if self.obs.enabled:
                    self._m_stale.labels(
                        profile=self._obs_profile, kind="positive"
                    ).inc()
            self._enqueue_refresh(qname, rdtype)
            return
        negative = self.cache.get_stale_negative(qname, rdtype)
        if negative is not None:
            outcome.rcode = negative.rcode
            # RFC 8767's 30-second stale TTL applies to the SOA (and the
            # rest of the authority section) of stale negatives too.
            outcome.authority_rrsets = [
                r.with_ttl(min(int(r.ttl), STALE_TTL)) for r in negative.authority
            ]
            outcome.stale = True
            event = (
                ResolutionEvent.STALE_NXDOMAIN_SERVED
                if negative.rcode == Rcode.NXDOMAIN
                else ResolutionEvent.STALE_ANSWER_SERVED
            )
            record = EventRecord(event, qname=qname, rdtype=str(rdtype))
            outcome.events.append(record)
            if self.obs.enabled:
                self.obs.trace_event_record(record)
            if not self._refreshing:
                if negative.rcode == Rcode.NXDOMAIN:
                    self.stats.stale_nxdomain_served += 1
                    kind = "nxdomain"
                else:
                    self.stats.stale_served += 1
                    kind = "positive"
                if self.obs.enabled:
                    self._m_stale.labels(profile=self._obs_profile, kind=kind).inc()
            self._enqueue_refresh(qname, rdtype)

    # -- stale-while-revalidate ---------------------------------------------------

    def _enqueue_refresh(self, qname: Name, rdtype: RdataType) -> None:
        if self._refresh is not None and not self._refreshing:
            self._refresh.enqueue((qname, int(rdtype)))

    def run_refreshes(self, limit: int | None = None) -> int:
        """Drain up to ``limit`` due background refreshes; returns how
        many names came back fresh.  A refresh that still cannot reach
        the authority is rescheduled with a back-off rather than dropped.
        """
        if self._refresh is None or self._refreshing:
            return 0
        if limit is None:
            limit = REFRESH_PER_QUERY
        refreshed = 0
        self._refreshing = True
        try:
            for key in self._refresh.due(limit):
                qname, rdtype_value = key
                rdtype = RdataType(rdtype_value)
                self.stats.refreshes += 1
                # Budget the refresh like a client query: background
                # work must not hog the serving thread longer than a
                # query may, and the clamp keeps the retry path's
                # jittered backoff from ever sleeping (the first
                # timeout spends the whole budget) — so refresh timing
                # stays a pure function of the workload.
                deadline: DeadlineBudget | None = None
                if self.resilience is not None and self.resilience.client_deadline > 0:
                    deadline = DeadlineBudget.after(
                        self.clock, self.resilience.client_deadline
                    )
                outcome = self._resolve_uncached(
                    qname, rdtype, checking_disabled=False, deadline=deadline
                )
                if outcome.stale or outcome.rcode == Rcode.SERVFAIL:
                    self._refresh.reschedule(key)
                else:
                    self._refresh.done(key)
                    self.stats.refreshed_ok += 1
                    refreshed += 1
        finally:
            self._refreshing = False
        return refreshed

    def answer_from_cache(self, query: Message) -> Message | None:
        """Best effort answer without any upstream work: fresh, negative,
        or cached-error hit, else a stale answer — or None.  This is the
        always-served path the overload-shedding frontend relies on."""
        question = query.question[0]
        qname, rdtype = question.name, question.rdtype
        outcome = self._outcome_from_cache(qname, rdtype)
        if outcome is None:
            outcome = ResolutionOutcome()
            self._maybe_serve_stale(qname, rdtype, outcome)
            if not outcome.stale:
                return None
        self.stats.queries += 1
        return self._build_response(query, outcome)

    def _store_in_cache(
        self, qname: Name, rdtype: RdataType, outcome: ResolutionOutcome
    ) -> None:
        if outcome.rcode == Rcode.NOERROR and outcome.answer_rrsets:
            for rrset in outcome.answer_rrsets:
                if rrset.rdtype != RdataType.RRSIG:
                    self.cache.put_rrset(rrset)
        elif outcome.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN):
            soa_ttl = 300.0
            for rrset in outcome.authority_rrsets:
                if rrset.rdtype == RdataType.SOA:
                    soa_ttl = rrset.ttl
            self.cache.put_negative(
                qname, rdtype, outcome.rcode, outcome.authority_rrsets, soa_ttl
            )

    # -- response assembly ------------------------------------------------------------------

    def _build_response(self, query: Message, outcome: ResolutionOutcome) -> Message:
        response = query.make_response()
        response.rcode = outcome.rcode
        dnssec_ok = query.edns is not None and query.edns.dnssec_ok
        for rrset in outcome.answer_rrsets:
            if rrset.rdtype == RdataType.RRSIG and not dnssec_ok:
                continue
            response.answer.append(rrset)
        for rrset in outcome.authority_rrsets:
            if rrset.rdtype in (RdataType.RRSIG, RdataType.NSEC, RdataType.NSEC3) and not dnssec_ok:
                continue
            response.authority.append(rrset)
        if outcome.validation.state is ValidationState.SECURE and not query.cd:
            response.ad = True
        for emission in self.policy.emissions(outcome):
            response.add_ede(emission.code, emission.extra_text)
        if response.extended_errors:
            self.stats.with_ede += 1
        return response

    # -- validator record source ----------------------------------------------------------------

    def fetch_from_zone(self, zone: Name, qname: Name, rdtype: RdataType) -> FetchResult:
        key = (zone, qname, int(rdtype))
        entry = self._infra_cache.fresh(key)
        if entry is not None:
            self.stats.infra_hits += 1
            self._note_infra_fetch(zone, qname, rdtype, "hit")
            return entry[0]
        if self._l2 is not None:
            shared = self._l2.get(key)
            if shared is not None:
                # Read-through: adopt the sibling shard's fetch into our
                # private L1 at its original expiry.  The payload is the
                # exact FetchResult a fresh fetch would have produced
                # (zone content is deterministic), so this cannot change
                # categorization — only the wire volume.
                result, expires_at = shared
                self._infra_cache.put(key, result, expires_at)
                self.stats.infra_hits += 1
                self._note_infra_fetch(zone, qname, rdtype, "hit")
                return result
        # Single-flight on infrastructure records: two lanes validating
        # through the same zone cut want the same DNSKEY/DS set — the
        # second parks and reads the entry the first just cached.  Like
        # the client-flight wait, bounded by the client deadline riding
        # in thread-local state: past it, stop waiting and let the spent
        # budget abort the fetch below.
        deadline = getattr(self._deadline_tls, "active", None)
        flight = self._infra_flights.get(key)
        if flight is not None and self.clock.wait_virtual(
            lambda: flight.done,
            wake_at=deadline.deadline if deadline is not None else None,
        ):
            if flight.done:
                self.stats.coalesced_infra += 1
                if self.obs.enabled:
                    self._m_coalesced.labels(
                        profile=self._obs_profile, level="infra"
                    ).inc()
                    self.obs.trace_event(TraceEventKind.COALESCED, level="infra")
                entry = self._infra_cache.fresh(key)
                if entry is not None:
                    return entry[0]
                # Owner unwound without caching; fall through and fetch.
        self.stats.infra_misses += 1
        self._note_infra_fetch(zone, qname, rdtype, "miss")
        own = _Flight()
        current = self._infra_flights.get(key)
        claimed = current is None or current.done
        if claimed:
            self._infra_flights[key] = own
        try:
            now = self.clock.now()
            events: list[EventRecord] = []
            response = self.engine.query_zone(
                zone,
                qname,
                rdtype,
                events,
                deadline=getattr(self._deadline_tls, "active", None),
            )
            active = getattr(self._events_tls, "active", None)
            if active is not None:
                active.extend(events)
            if response is None:
                result = FetchResult(ok=False, rcode=Rcode.SERVFAIL, events=events)
            else:
                result = FetchResult(
                    ok=True,
                    rcode=response.rcode,
                    answer=tuple(response.answer),
                    authority=tuple(response.authority),
                    events=events,
                )
            self._infra_cache.put(key, result, now + self._infra_ttl)
            if self._l2 is not None:
                self._l2.put(key, result, now + self._infra_ttl)
            return result
        finally:
            own.done = True
            if claimed and self._infra_flights.get(key) is own:
                self._infra_flights.pop(key, None)

    def _note_infra_fetch(
        self, zone: Name, qname: Name, rdtype: RdataType, outcome: str
    ) -> None:
        if not self.obs.enabled:
            return
        self._m_infra.labels(profile=self._obs_profile, outcome=outcome).inc()
        self.obs.trace_event(
            TraceEventKind.INFRA_FETCH,
            zone=str(zone),
            qname=str(qname),
            rdtype=str(rdtype),
            outcome=outcome,
        )

    def flush_caches(self) -> None:
        for store in self._stores:
            store.flush()

    # -- uniform inspection surface (shared with ResolverCluster) --------------------------------

    def cache_stats(self):
        """Answer-cache counters (the cluster sums these across shards)."""
        return self.cache.stats

    def open_breaker_keys(self) -> tuple[str, ...]:
        return tuple(sorted(self.engine.breakers.open_keys()))

    def refresh_backlog(self) -> int:
        return len(self._refresh) if self._refresh is not None else 0


class _ValidatorSource:
    """Adapter giving the validator access to the resolver's fetch path."""

    def __init__(self, resolver: RecursiveResolver):
        self._resolver = resolver

    def fetch_from_zone(self, zone: Name, qname: Name, rdtype: RdataType) -> FetchResult:
        return self._resolver.fetch_from_zone(zone, qname, rdtype)
