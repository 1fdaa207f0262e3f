"""A forwarding resolver (CPE / enterprise style): it relays queries to
upstream resolvers, forwards (optionally annotated) and generates EDE
options, and applies an optional local policy first — the relay rule
written out in docs/ARCHITECTURE.md, "The forwarder's relay rule".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..dns.ede import EdeCode
from ..dns.exceptions import DnsError
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.render import LazyWire, read_reply
from ..dns.types import RdataType
from ..net.endpoint import Endpoint
from ..net.fabric import NetworkFabric, TransportError
from ..obs import NULL_OBS, Observability
from .cache import CacheConfig, ResolverCache, default_cache_config
from .policy import ACTION_EDE, LocalPolicy, PolicyAction


@dataclass
class ForwarderStats:
    queries: int = 0
    forwarded: int = 0
    upstream_failovers: int = 0
    upstream_exhausted: int = 0
    ede_forwarded: int = 0
    ede_generated: int = 0
    policy_hits: int = 0


class ForwardingResolver(Endpoint):
    """Relays queries to upstream recursive resolvers, EDE included."""

    recursion_available = True

    def __init__(
        self,
        fabric: NetworkFabric,
        upstreams: list[str],
        source_ip: str = "203.0.113.53",
        annotate_forwarded: bool = False,
        local_policy: LocalPolicy | None = None,
        cache_config: CacheConfig | None = None,
        timeout: float = 3.0,
        rng_seed: int = 0xF04D,
        obs: Observability | None = None,
    ):
        if not upstreams:
            raise ValueError("a forwarder needs at least one upstream")
        self.fabric = fabric
        self.upstreams = list(upstreams)
        self.source_ip = source_ip
        self.annotate_forwarded = annotate_forwarded
        self.local_policy = local_policy
        # Shared serving-path default (serve-stale ON); pass an explicit
        # cache_config to model a different cache policy.
        self.cache = ResolverCache(
            fabric.clock, cache_config or default_cache_config()
        )
        self.timeout = timeout
        self._rng = random.Random(rng_seed)
        self.stats = ForwarderStats()
        self.obs = obs or NULL_OBS
        self._m_queries = self.obs.counter("repro_forwarder_queries_total")
        self._m_failovers = self.obs.counter(
            "repro_forwarder_upstream_failovers_total"
        )
        self._m_ede = self.obs.counter("repro_forwarder_ede_total")

    # -- main path ----------------------------------------------------------------

    def resolve(self, qname: Name | str, rdtype: RdataType | str = RdataType.A) -> Message:
        query = Message.make_query(qname, rdtype, want_dnssec=False, rng=self._rng)
        return self.handle_query(query)

    def handle_query(self, query: Message, source: str = "") -> Message:
        self.stats.queries += 1
        self._m_queries.inc()
        question = query.question[0]
        qname, rdtype = question.name, question.rdtype

        if self.local_policy is not None:
            decision = self.local_policy.evaluate(qname)
            if decision is not None:
                self.stats.policy_hits += 1
                return self._policy_response(query, qname, rdtype, decision)

        cached = self.cache.get_rrset(qname, rdtype)
        if cached is not None:
            response = query.make_response()
            response.answer.append(cached)
            return response

        upstream_response = self._ask_upstreams(query)
        if upstream_response is None:
            return self._all_upstreams_down(query, qname, rdtype)

        response = self._relay(query, upstream_response)
        if response.rcode == Rcode.NOERROR:
            for rrset in response.answer:
                if rrset.rdtype == rdtype:
                    self.cache.put_rrset(rrset)
        return response

    # -- internals --------------------------------------------------------------------

    def _ask_upstreams(self, query: Message) -> "tuple[str, Message] | None":
        for upstream in self.upstreams:
            relay = Message.make_query(
                query.question[0].name,
                query.question[0].rdtype,
                want_dnssec=query.edns.dnssec_ok if query.edns else False,
                recursion_desired=True,
                rng=self._rng,
            )
            response = self._exchange(upstream, relay, "udp")
            if response is not None and response.tc:
                # The answer outgrew the datagram: ask the same upstream
                # over TCP (RFC 7766), whose reply is never truncated.
                response = self._exchange(upstream, relay, "tcp")
            if response is None:
                self.stats.upstream_failovers += 1
                self._m_failovers.inc()
                continue
            return upstream, response
        self.stats.upstream_exhausted += 1
        return None

    def _exchange(self, upstream: str, relay: Message, transport: str) -> Message | None:
        """The upstream's reply to ``relay``, or None when none came:
        lost, unparseable, or the reply to another query."""
        try:
            raw = self.fabric.send(
                upstream, LazyWire(relay), source=self.source_ip,
                timeout=self.timeout, transport=transport, message=relay,
            )
        except TransportError:
            return None
        try:
            response = read_reply(raw)
        except DnsError:
            return None
        return response if response.is_reply_to(relay) else None

    def _relay(self, query: Message, upstream_result: tuple[str, Message]) -> Message:
        upstream, upstream_response = upstream_result
        self.stats.forwarded += 1
        response = query.make_response()
        response.rcode = upstream_response.rcode
        response.answer = list(upstream_response.answer)
        response.authority = list(upstream_response.authority)
        for option in upstream_response.extended_errors:
            text = option.extra_text
            if self.annotate_forwarded:
                prefix = f"[from {upstream}] "
                text = prefix + text if text else prefix.strip()
            self._add_ede(response, "forwarded", option.info_code, text)
        return response

    def _all_upstreams_down(
        self, query: Message, qname: Name, rdtype: RdataType
    ) -> Message:
        response = query.make_response()
        stale = self.cache.get_stale_rrset(qname, rdtype)
        if stale is not None:
            response.answer.append(stale)
            self._add_ede(response, "generated", EdeCode.STALE_ANSWER)
            return response
        response.rcode = Rcode.SERVFAIL
        self._add_ede(response, "generated", EdeCode.NO_REACHABLE_AUTHORITY)
        self._add_ede(
            response, "generated", EdeCode.NETWORK_ERROR,
            f"no upstream resolver reachable ({', '.join(self.upstreams)})",
        )
        return response

    def _policy_response(self, query: Message, qname, rdtype, decision) -> Message:
        from ..dns.rdata import A as ARdata
        from ..dns.rrset import RRset

        response = query.make_response()
        response.rcode = decision.rcode
        if decision.action is PolicyAction.FORGE and rdtype == RdataType.A:
            response.answer.append(
                RRset.of(
                    qname, RdataType.A,
                    ARdata(address=decision.rule.forged_address), ttl=30,
                )
            )
        self._add_ede(
            response, "generated", ACTION_EDE[decision.action], decision.rule.reason
        )
        return response

    def _add_ede(self, response: Message, origin: str, info_code: int, text: str = "") -> None:
        """Attach one EDE option and count it, as ``forwarded`` or
        ``generated`` — only when :meth:`Message.add_ede` attached it."""
        if not response.add_ede(info_code, text):
            return
        if origin == "forwarded":
            self.stats.ede_forwarded += 1
        else:
            self.stats.ede_generated += 1
        self._m_ede.labels(origin=origin).inc()
