"""Iterative (recursive-resolver-side) resolution over the fabric.

Walks referrals from the root hints down to an authoritative answer,
chasing CNAMEs and out-of-bailiwick nameserver addresses, recording a
:class:`ResolutionEvent` for every transport or server anomaly it
observes.  The engine also remembers which servers host which zone so
the DNSSEC validator can fetch DS/DNSKEY/NSEC3PARAM records from the
right place, and whether each delegation was signed (a DS was present)
— the signal behind Cloudflare's ``DNSKEY Missing`` on unreachable
signed zones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, auto

from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rdata import A, CNAME, NS
from ..dns.render import LazyWire, read_reply
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..dnssec.trace import EventRecord, ResolutionEvent
from ..net.fabric import NetworkFabric, Timeout, TransportError, Unreachable
from ..obs import NULL_OBS, Observability, TraceEventKind
from .error_reporting import REPORT_CHANNEL, ReportChannelOption
from .resilience import BreakerBook, BreakerConfig, DeadlineBudget
from .server_stats import ServerStatsBook


@dataclass
class IterationResult:
    """What came back from walking the tree for one (qname, rdtype)."""

    ok: bool = False
    rcode: int = Rcode.SERVFAIL
    answer: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    zone_path: list[Name] = field(default_factory=list)
    final_zone: Name | None = None
    aa: bool = False
    #: True when the failing zone's delegation carried a DS record.
    failed_signed_zone: bool = False
    failed_zone: Name | None = None


#: Seconds one upstream query waits for its reply.
UPSTREAM_TIMEOUT = 2.0
#: Referrals one resolution follows before it gives up.
MAX_REFERRALS = 32
#: CNAME hops one resolution chases before ITERATION_LIMIT_EXCEEDED.
MAX_CNAME_CHAIN = 8
#: Ceiling on one retry's exponential backoff, seconds.
BACKOFF_MAX = 3.0


@dataclass
class EngineConfig:
    source_ip: str = "198.51.100.1"
    retries: int = 1
    max_ns_depth: int = 4
    payload: int = 1232
    #: RFC 9156: expose only one extra label per zone while iterating.
    qname_minimization: bool = False
    #: Exponential backoff between retries to one server: the n-th retry
    #: waits ``backoff_base * 2**n`` seconds (capped at ``BACKOFF_MAX``),
    #: spread by ±``backoff_jitter`` to avoid synchronized retry storms.
    backoff_base: float = 0.4
    backoff_jitter: float = 0.25
    #: Unbound-style anti-amplification guard: total upstream queries
    #: one client resolution may spend before it turns into SERVFAIL.
    max_queries_per_resolution: int = 100
    #: Seed for retry-jitter decisions, so hardened runs replay exactly.
    rng_seed: int = 20230524
    #: Circuit-breaker knobs for the resilience layer.  ``None`` (the
    #: default) disables breakers entirely: no state is kept, no query
    #: is ever short-circuited, and the retry/backoff timing of the
    #: seed behaviour is preserved exactly.
    breaker: BreakerConfig | None = None


@dataclass
class EngineStats:
    """Counters for the hardened failure-handling path."""

    queries: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    tcp_fallbacks: int = 0
    mismatched_ids: int = 0
    budget_exhaustions: int = 0
    deadline_exhaustions: int = 0
    breaker_skips: int = 0


@dataclass
class QueryBudget:
    """Total-query allowance for one client resolution (and all the
    sub-resolutions it spawns while chasing NS addresses)."""

    limit: int
    used: int = 0
    reported: bool = False

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


class _Vet(Enum):
    """Outcome of validating one response against its query."""

    OK = auto()
    RETRY = auto()  # mismatched ID: possibly spoofed/stale, try again
    FAIL = auto()  # give up on this server


class IterativeEngine:
    """Referral-walking resolution core shared by all vendor profiles."""

    def __init__(
        self,
        fabric: NetworkFabric,
        root_hints: dict[str, list[str]] | list[str],
        config: EngineConfig | None = None,
        obs: Observability | None = None,
    ):
        self.fabric = fabric
        self.config = config or EngineConfig()
        self.obs = obs or NULL_OBS
        self._m_upstream = self.obs.counter("repro_engine_upstream_queries_total")
        self._m_rtt = self.obs.histogram("repro_engine_upstream_rtt_virtual_seconds")
        self._m_events = self.obs.counter("repro_engine_transport_events_total")
        self._m_breaker_skips = self.obs.counter("repro_engine_breaker_skips_total")
        if isinstance(root_hints, dict):
            addresses = [addr for addrs in root_hints.values() for addr in addrs]
        else:
            addresses = list(root_hints)
        self._root_servers = addresses
        #: zone apex -> server addresses, learned from referrals.
        self.zone_servers: dict[Name, list[str]] = {Name.root(): list(addresses)}
        #: zone apex -> whether its delegation at the parent included a DS.
        self.zone_signed: dict[Name, bool] = {Name.root(): True}
        #: zone apex -> DNS Error Reporting agent domain (RFC 9567),
        #: learned from Report-Channel options on authoritative answers.
        self.report_channels: dict[Name, Name] = {}
        self._msg_id = 0
        #: Seeded RNG; public so callers can share one stream (message IDs).
        self.rng = random.Random(self.config.rng_seed)
        #: Per-server/per-zone circuit breakers; a no-op book when the
        #: config carries no BreakerConfig (the seed behaviour).
        self.breakers = BreakerBook(fabric.clock, self.config.breaker, obs=self.obs)
        self.server_stats = ServerStatsBook(
            fabric.clock, listener=self.breakers if self.breakers.enabled else None
        )
        self.stats = EngineStats()

    # -- low-level query ------------------------------------------------------------

    def _note(self, events: list[EventRecord], record: EventRecord) -> None:
        """Record one transport observation: the ``events`` list (the
        EDE-attribution input, exactly as before) plus the observability
        mirror — a virtual-timestamped trace event and a counter."""
        events.append(record)
        if self.obs.enabled:
            self.obs.trace_event_record(record)
            self._m_events.labels(event=record.event.name).inc()

    def _next_id(self) -> int:
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        return self._msg_id

    def _backoff(
        self,
        attempt: int,
        attempts: int,
        deadline: DeadlineBudget | None = None,
    ) -> None:
        """Exponential backoff + jitter before the next retry (if any).

        Under a deadline budget the sleep is clamped to what is left —
        waiting past the client's patience helps nobody.
        """
        if attempt + 1 >= attempts or self.config.backoff_base <= 0:
            return
        delay = min(BACKOFF_MAX, self.config.backoff_base * (2 ** attempt))
        jitter = self.config.backoff_jitter
        if jitter:
            delay *= 1 + jitter * (2 * self.rng.random() - 1)
        if deadline is not None:
            delay = min(delay, deadline.remaining())
            if delay <= 0:
                return
        self.stats.retries += 1
        self.stats.backoff_seconds += delay
        self.fabric.clock.sleep(delay)

    def _note_deadline_exhausted(
        self,
        deadline: DeadlineBudget,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
    ) -> None:
        if deadline.reported:
            return
        deadline.reported = True
        self.stats.deadline_exhaustions += 1
        self._note(events,
            EventRecord(
                ResolutionEvent.DEADLINE_EXHAUSTED,
                qname=qname,
                rdtype=str(rdtype),
                detail="client deadline budget drained",
            )
        )

    def _note_budget_exhausted(
        self,
        budget: QueryBudget,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
    ) -> None:
        if budget.reported:
            return
        budget.reported = True
        self.stats.budget_exhaustions += 1
        self._note(events,
            EventRecord(
                ResolutionEvent.QUERY_BUDGET_EXCEEDED,
                qname=qname,
                rdtype=str(rdtype),
                detail=f"query budget ({budget.limit}) exhausted",
            )
        )

    def _parse_response(
        self,
        raw: bytes | LazyWire,
        server: str,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
    ) -> Message | None:
        try:
            return read_reply(raw)
        except Exception:
            self._note(events,
                EventRecord(
                    ResolutionEvent.SERVER_FORMERR,
                    server=f"{server}:53",
                    qname=qname,
                    rdtype=str(rdtype),
                    detail="unparseable response",
                )
            )
            return None

    def _vet_response(
        self,
        query: Message,
        response: Message,
        server: str,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
    ) -> _Vet:
        """Sanity checks every response must pass, UDP or TCP alike."""
        if response.id != query.id:
            # Spoofed, reordered, or duplicated datagram: never accept,
            # but do not give up on the server either — a fresh query
            # (with a fresh ID) may well succeed.
            self.stats.mismatched_ids += 1
            self._note(events,
                EventRecord(
                    ResolutionEvent.MISMATCHED_ID,
                    server=f"{server}:53",
                    qname=qname,
                    rdtype=str(rdtype),
                    detail=f"response ID {response.id} != query ID {query.id}",
                )
            )
            return _Vet.RETRY
        if not response.question or response.question[0].name != qname:
            self._note(events,
                EventRecord(
                    ResolutionEvent.MISMATCHED_QUESTION,
                    server=f"{server}:53",
                    qname=qname,
                    rdtype=str(rdtype),
                )
            )
            return _Vet.FAIL
        if query.edns is not None and response.edns is None:
            # Pre-EDNS server silently dropped the OPT record instead of
            # answering FORMERR (wild-scan Invalid Data category).
            self._note(events,
                EventRecord(
                    ResolutionEvent.SERVER_NO_EDNS,
                    server=f"{server}:53",
                    qname=qname,
                    rdtype=str(rdtype),
                )
            )
        return _Vet.OK

    _BAD_RCODE_EVENTS = {
        Rcode.REFUSED: ResolutionEvent.SERVER_REFUSED,
        Rcode.SERVFAIL: ResolutionEvent.SERVER_SERVFAIL,
        Rcode.NOTAUTH: ResolutionEvent.SERVER_NOTAUTH,
        Rcode.FORMERR: ResolutionEvent.SERVER_FORMERR,
    }

    def _check_rcode(
        self,
        response: Message,
        server: str,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
    ) -> bool:
        """True when the RCODE is fatal; records the event and marks the
        server lame so adaptive selection deprioritizes it."""
        if response.rcode not in self._BAD_RCODE_EVENTS:
            return False
        self._note(events,
            EventRecord(
                self._BAD_RCODE_EVENTS[Rcode(response.rcode)],
                server=f"{server}:53",
                qname=qname,
                rdtype=str(rdtype),
                detail=f"rcode={Rcode(response.rcode).name}",
            )
        )
        self.server_stats.note_lame(server)
        return True

    def query_server(
        self,
        server: str,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
        budget: QueryBudget | None = None,
        deadline: DeadlineBudget | None = None,
    ) -> Message | None:
        """One query (with retries) to one server; None on failure.

        Every attempt uses a fresh message ID; retries back off
        exponentially with jitter; RTTs, timeouts, and lame answers feed
        the per-server quality book.  TCP truncation fallbacks pass
        through exactly the same response validation as UDP.

        With the resilience layer on, an open per-server breaker skips
        the server outright, and a deadline budget shrinks per-attempt
        timeouts (and backoffs) to whatever patience the client has
        left.
        """
        if not self.breakers.allow(server):
            self.stats.breaker_skips += 1
            self._m_breaker_skips.inc()
            self._note(events,
                EventRecord(
                    ResolutionEvent.BREAKER_OPEN,
                    server=f"{server}:53",
                    qname=qname,
                    rdtype=str(rdtype),
                    detail="server breaker open",
                )
            )
            return None
        attempts = 1 + max(0, self.config.retries)
        for attempt in range(attempts):
            if budget is not None and not budget.take():
                self._note_budget_exhausted(budget, qname, rdtype, events)
                return None
            if deadline is not None and deadline.expired:
                self._note_deadline_exhausted(deadline, qname, rdtype, events)
                return None
            timeout = (
                UPSTREAM_TIMEOUT if deadline is None else deadline.clamp(UPSTREAM_TIMEOUT)
            )
            msg_id = self._next_id()
            query = Message.make_query(
                qname,
                rdtype,
                want_dnssec=True,
                recursion_desired=False,
                payload=self.config.payload,
                msg_id=msg_id,
            )
            # Sized now, rendered only if something on the way reads bytes.
            wire = LazyWire(query)
            self.stats.queries += 1
            started = self.fabric.clock.now()
            if self.obs.enabled:
                self._m_upstream.labels(transport="udp").inc()
                self.obs.trace_event(
                    TraceEventKind.UPSTREAM_QUERY,
                    server=f"{server}:53", qname=str(qname),
                    rdtype=str(rdtype), transport="udp",
                )
            try:
                raw = self.fabric.send(
                    server,
                    wire,
                    source=self.config.source_ip,
                    timeout=timeout,
                    message=query,
                )
            except Unreachable:
                self._note(events,
                    EventRecord(
                        ResolutionEvent.SERVER_UNREACHABLE,
                        server=f"{server}:53",
                        qname=qname,
                        rdtype=str(rdtype),
                    )
                )
                self.server_stats.note_lame(server)
                return None  # no point retrying an unroutable address
            except Timeout:
                self._note(events,
                    EventRecord(
                        ResolutionEvent.SERVER_TIMEOUT,
                        server=f"{server}:53",
                        qname=qname,
                        rdtype=str(rdtype),
                        detail="timeout",
                    )
                )
                self.server_stats.note_timeout(server)
                self._backoff(attempt, attempts, deadline)
                continue
            except TransportError:
                return None
            rtt = self.fabric.clock.now() - started
            self.server_stats.note_rtt(server, rtt)
            response = self._parse_response(raw, server, qname, rdtype, events)
            if response is None:
                self.server_stats.note_lame(server)
                return None
            if self.obs.enabled:
                self._m_rtt.observe(rtt)
                self.obs.trace_event(
                    TraceEventKind.UPSTREAM_RESPONSE,
                    server=f"{server}:53", rcode=int(response.rcode), rtt=rtt,
                )
            vet = self._vet_response(query, response, server, qname, rdtype, events)
            if vet is _Vet.RETRY:
                self._backoff(attempt, attempts, deadline)
                continue
            if vet is _Vet.FAIL:
                return None
            if response.tc:
                # Truncated: retry the same server over TCP (RFC 7766),
                # revalidating the TCP response like any other.
                if budget is not None and not budget.take():
                    self._note_budget_exhausted(budget, qname, rdtype, events)
                    return None
                self.stats.tcp_fallbacks += 1
                if self.obs.enabled:
                    self._m_upstream.labels(transport="tcp").inc()
                    self.obs.trace_event(
                        TraceEventKind.UPSTREAM_QUERY,
                        server=f"{server}:53", qname=str(qname),
                        rdtype=str(rdtype), transport="tcp",
                    )
                try:
                    raw = self.fabric.send(
                        server, wire, source=self.config.source_ip,
                        timeout=(
                            UPSTREAM_TIMEOUT
                            if deadline is None
                            else deadline.clamp(UPSTREAM_TIMEOUT)
                        ),
                        transport="tcp",
                    )
                except TransportError:
                    self._note(events,
                        EventRecord(
                            ResolutionEvent.SERVER_TIMEOUT,
                            server=f"{server}:53",
                            qname=qname,
                            rdtype=str(rdtype),
                            detail="tcp retry failed",
                        )
                    )
                    self.server_stats.note_timeout(server)
                    self._backoff(attempt, attempts, deadline)
                    continue
                response = self._parse_response(raw, server, qname, rdtype, events)
                if response is None:
                    self.server_stats.note_lame(server)
                    return None
                vet = self._vet_response(query, response, server, qname, rdtype, events)
                if vet is _Vet.RETRY:
                    self._backoff(attempt, attempts, deadline)
                    continue
                if vet is _Vet.FAIL:
                    return None
            if self._check_rcode(response, server, qname, rdtype, events):
                return None
            return response
        return None

    def _ordered_servers(self, servers: list[str]) -> list[str]:
        """Best-server-first while a chaos policy is installed on the
        fabric; referral order otherwise."""
        if getattr(self.fabric, "chaos", None) is None:
            return list(servers)
        return self.server_stats.order(servers)

    def query_zone(
        self,
        zone: Name,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
        budget: QueryBudget | None = None,
        deadline: DeadlineBudget | None = None,
    ) -> Message | None:
        """Query every known server for ``zone`` until one answers usefully.

        The zone-level circuit breaker wraps the whole server sweep: a
        zone whose every server just failed opens after the configured
        threshold, and an open zone breaker answers None immediately —
        the caller falls straight through to serve-stale instead of
        re-timing-out the same dead delegation.
        """
        # A disabled book drops every key, so none is formatted for it.
        zone_key = f"zone/{zone}" if self.breakers.enabled else ""
        if not self.breakers.allow(zone_key):
            self.stats.breaker_skips += 1
            self._m_breaker_skips.inc()
            self._note(events,
                EventRecord(
                    ResolutionEvent.BREAKER_OPEN,
                    qname=qname,
                    rdtype=str(rdtype),
                    detail=f"zone breaker open: {zone}",
                )
            )
            return None
        servers = self.zone_servers.get(zone, [])
        swept_all = True
        for server in self._ordered_servers(servers):
            if budget is not None and budget.exhausted:
                self._note_budget_exhausted(budget, qname, rdtype, events)
                swept_all = False
                break
            if deadline is not None and deadline.expired:
                self._note_deadline_exhausted(deadline, qname, rdtype, events)
                swept_all = False
                break
            response = self.query_server(server, qname, rdtype, events, budget, deadline)
            if response is not None:
                self.breakers.on_success(zone_key)
                if response.edns is not None:
                    option = response.edns.option(REPORT_CHANNEL)
                    if isinstance(option, ReportChannelOption):
                        self.report_channels[zone] = option.agent_domain
                return response
        if swept_all:
            # Only a full, genuinely failed sweep counts against the
            # zone: running out of budget/deadline says nothing about
            # the zone's health (the per-server books saw the details).
            self.breakers.on_failure(zone_key)
        return None

    def report_channel_for(self, qname: Name) -> Name | None:
        """Deepest learned reporting agent covering ``qname``."""
        current = qname
        while True:
            agent = self.report_channels.get(current)
            if agent is not None:
                return agent
            if current.is_root():
                return None
            current = current.parent()

    # -- full iteration -------------------------------------------------------------------

    def resolve(
        self,
        qname: Name,
        rdtype: RdataType,
        events: list[EventRecord],
        depth: int = 0,
        budget: QueryBudget | None = None,
        deadline: DeadlineBudget | None = None,
    ) -> IterationResult:
        if budget is None:
            budget = QueryBudget(limit=self.config.max_queries_per_resolution)
        result = IterationResult()
        current_zone = self._deepest_known_zone(qname)
        result.zone_path = self._path_to(current_zone)
        target = qname
        chained_answers: list[RRset] = []
        cname_hops = 0

        min_extra_labels = 1  # qname-minimization probe depth below the cut
        for _ in range(MAX_REFERRALS):
            probe = target
            if (
                self.config.qname_minimization
                and target.is_strict_subdomain_of(current_zone)
            ):
                depth = min(
                    current_zone.label_count() + min_extra_labels,
                    target.label_count(),
                )
                _prefix, probe = target.split(depth)
            response = self.query_zone(
                current_zone, probe, rdtype, events, budget, deadline
            )
            if response is None:
                self._note(events,
                    EventRecord(
                        ResolutionEvent.ALL_SERVERS_FAILED,
                        qname=target,
                        rdtype=str(rdtype),
                        detail=str(current_zone),
                    )
                )
                result.ok = False
                result.rcode = Rcode.SERVFAIL
                result.failed_zone = current_zone
                result.failed_signed_zone = self.zone_signed.get(current_zone, False)
                return result

            answer_rrset = response.find_answer(target, rdtype)
            cname_rrset = response.find_answer(target, RdataType.CNAME)

            if answer_rrset is not None or (
                rdtype == RdataType.CNAME and cname_rrset is not None
            ):
                result.ok = True
                result.rcode = response.rcode
                result.answer = chained_answers + list(response.answer)
                result.authority = list(response.authority)
                result.final_zone = current_zone
                result.aa = response.aa
                return result

            if cname_rrset is not None:
                cname_hops += 1
                if cname_hops > MAX_CNAME_CHAIN:
                    self._note(events,
                        EventRecord(
                            ResolutionEvent.ITERATION_LIMIT_EXCEEDED,
                            qname=target,
                            detail="CNAME chain too long",
                        )
                    )
                    result.rcode = Rcode.SERVFAIL
                    return result
                self._note(events,
                    EventRecord(ResolutionEvent.CNAME_CHASED, qname=target)
                )
                chained_answers.extend(response.answer)
                rdata = cname_rrset.rdatas[0]
                assert isinstance(rdata, CNAME)
                target = rdata.target
                current_zone = self._deepest_known_zone(target)
                result.zone_path = self._path_to(current_zone)
                continue

            referral = self._extract_referral(response, current_zone, target)
            if referral is not None:
                child_zone, servers, ds_present = referral
                if not servers:
                    servers = self._resolve_ns_addresses(
                        response, child_zone, events, depth, budget, deadline
                    )
                if not servers:
                    self._note(events,
                        EventRecord(
                            ResolutionEvent.ALL_SERVERS_FAILED,
                            qname=target,
                            detail=f"no addresses for {child_zone} nameservers",
                        )
                    )
                    result.rcode = Rcode.SERVFAIL
                    result.failed_zone = child_zone
                    result.failed_signed_zone = ds_present
                    return result
                self.zone_servers[child_zone] = servers
                self.zone_signed[child_zone] = ds_present
                current_zone = child_zone
                result.zone_path.append(child_zone)
                min_extra_labels = 1
                continue

            if probe != target and response.rcode == Rcode.NOERROR:
                # Minimized probe hit an empty non-terminal (or an apex
                # record): expose one more label and ask the same zone.
                min_extra_labels += 1
                continue

            # Authoritative negative (NXDOMAIN or NODATA), or a dead end.
            result.ok = response.aa or response.rcode == Rcode.NXDOMAIN
            result.rcode = response.rcode
            result.answer = chained_answers + list(response.answer)
            result.authority = list(response.authority)
            result.final_zone = current_zone
            result.aa = response.aa
            return result

        self._note(events,
            EventRecord(
                ResolutionEvent.ITERATION_LIMIT_EXCEEDED,
                qname=qname,
                detail="iteration limit exceeded",
            )
        )
        result.rcode = Rcode.SERVFAIL
        return result

    # -- helpers ------------------------------------------------------------------------------

    def _deepest_known_zone(self, qname: Name) -> Name:
        """Deepest zone with cached NS addresses above ``qname``.

        Real resolvers keep delegation (NS) records cached; starting each
        resolution at the deepest cached cut instead of the root is what
        keeps root/TLD query volume sane during a 300k-domain scan.
        """
        # Walk the ancestors of qname (cheap: a handful of dict probes)
        # rather than scanning the delegation cache, which can hold one
        # entry per scanned domain.
        if qname.is_root() or qname.label_count() < 2:
            return Name.root()
        current = qname.parent()
        while current.label_count() > 0 and not current.is_root():
            # Never start *at* the target name itself: its servers may be
            # the broken thing under test; re-walk from the parent.
            if current in self.zone_servers:
                return current
            current = current.parent()
        return Name.root()

    def _path_to(self, zone: Name) -> list[Name]:
        """All known ancestor zones of ``zone``, root first."""
        path = []
        current = zone
        while True:
            if current in self.zone_servers:
                path.append(current)
            if current.is_root():
                break
            current = current.parent()
        path.reverse()
        return path

    def _extract_referral(
        self, response: Message, current_zone: Name, target: Name
    ) -> tuple[Name, list[str], bool] | None:
        ns_rrset: RRset | None = None
        for rrset in response.authority:
            if (
                rrset.rdtype == RdataType.NS
                and rrset.name.is_strict_subdomain_of(current_zone)
                and target.is_subdomain_of(rrset.name)
            ):
                ns_rrset = rrset
                break
        if ns_rrset is None:
            return None
        ds_present = any(
            rrset.rdtype == RdataType.DS and rrset.name == ns_rrset.name
            for rrset in response.authority
        )
        ns_targets = {
            rdata.target for rdata in ns_rrset.rdatas if isinstance(rdata, NS)
        }
        glue: list[str] = []
        for rrset in response.additional:
            if rrset.name in ns_targets and rrset.rdtype in (RdataType.A, RdataType.AAAA):
                for rdata in rrset.rdatas:
                    address = getattr(rdata, "address", None)
                    if address is not None:
                        glue.append(address)
        return ns_rrset.name, glue, ds_present

    def _resolve_ns_addresses(
        self,
        response: Message,
        child_zone: Name,
        events: list[EventRecord],
        depth: int,
        budget: QueryBudget | None = None,
        deadline: DeadlineBudget | None = None,
    ) -> list[str]:
        """Chase out-of-bailiwick NS names (bounded recursion); the
        sub-resolutions spend from the same query budget."""
        if depth >= self.config.max_ns_depth:
            return []
        addresses: list[str] = []
        for rrset in response.authority:
            if rrset.rdtype != RdataType.NS or rrset.name != child_zone:
                continue
            for rdata in rrset.rdatas:
                if not isinstance(rdata, NS):
                    continue
                if budget is not None and budget.exhausted:
                    break
                sub_events: list[EventRecord] = []
                sub = self.resolve(
                    rdata.target, RdataType.A, sub_events, depth + 1, budget, deadline
                )
                events.extend(sub_events)
                if sub.ok:
                    for answer in sub.answer:
                        if answer.rdtype == RdataType.A:
                            for a_rdata in answer.rdatas:
                                if isinstance(a_rdata, A):
                                    addresses.append(a_rdata.address)
        return addresses
