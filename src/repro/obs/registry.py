"""The documented observability registry: every name, in one place.

Two closed vocabularies make the observability layer checkable:

* :data:`METRICS` — every metric family the package may emit, with its
  type, help text, and label names.  Code must request instruments with
  literal names from this table: ``Observability.counter()`` /
  ``gauge()`` / ``histogram()`` raise on an undocumented name or a kind
  mismatch when the instrument is wired, and ``tests/test_obs.py``
  flags any documented metric no code requests.
* :class:`~repro.obs.trace.TraceEventKind` — the span-event registry;
  ``tests/test_selfcheck.py``'s enum-member row covers references to it.

Keeping the vocabulary closed is what lets dashboards, the golden-trace
snapshots, and the differential tests treat names as stable API.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricSpec:
    """Declared shape of one metric family."""

    kind: str  # counter | gauge | histogram
    help: str
    labels: tuple[str, ...] = ()


#: name -> declared spec.  Sorted here for reviewability; the exposition
#: sorts independently so this order is documentation, not behaviour.
METRICS: dict[str, MetricSpec] = {
    # -- recursive resolver ------------------------------------------------
    "repro_resolver_queries_total": MetricSpec(
        "counter", "Client queries accepted by a recursive resolver", ("profile",)
    ),
    "repro_resolver_responses_total": MetricSpec(
        "counter", "Responses by final RCODE", ("profile", "rcode")
    ),
    "repro_resolver_ede_total": MetricSpec(
        "counter", "EDE options attached to responses, by INFO-CODE",
        ("profile", "code"),
    ),
    "repro_resolver_cache_hits_total": MetricSpec(
        "counter", "Answers served without upstream work",
        ("profile", "kind"),  # kind: positive | negative | error
    ),
    "repro_resolver_render_hits_total": MetricSpec(
        "counter",
        "Datagrams served from the rendered-wire cache (ID/TTL patched bytes)",
        ("profile",),
    ),
    "repro_resolver_stale_served_total": MetricSpec(
        "counter", "RFC 8767 stale answers served", ("profile", "kind")
    ),
    "repro_resolver_coalesced_total": MetricSpec(
        "counter", "Resolutions that piggybacked on an in-flight twin",
        ("profile", "level"),  # level: client | infra
    ),
    "repro_resolver_infra_fetch_total": MetricSpec(
        "counter", "Validator infrastructure fetches", ("profile", "outcome")
    ),
    "repro_resolver_validation_total": MetricSpec(
        "counter", "DNSSEC validation verdicts", ("profile", "state")
    ),
    "repro_resolver_resolve_virtual_seconds": MetricSpec(
        "histogram", "Virtual time from client query to response", ("profile",)
    ),
    # -- iterative engine --------------------------------------------------
    "repro_engine_upstream_queries_total": MetricSpec(
        "counter", "Queries handed to the fabric", ("transport",)
    ),
    "repro_engine_upstream_rtt_virtual_seconds": MetricSpec(
        "histogram", "Virtual round-trip time of answered upstream queries"
    ),
    "repro_engine_transport_events_total": MetricSpec(
        "counter", "Transport/server anomalies observed while iterating",
        ("event",),
    ),
    "repro_engine_breaker_skips_total": MetricSpec(
        "counter", "Queries short-circuited by an open circuit breaker"
    ),
    "repro_breaker_transitions_total": MetricSpec(
        "counter",
        "Circuit-breaker state transitions and half-open probe grants",
        ("transition",),  # transition: open | half_open | close | probe
    ),
    # -- forwarder ---------------------------------------------------------
    "repro_forwarder_queries_total": MetricSpec(
        "counter", "Client queries accepted by a forwarding resolver"
    ),
    "repro_forwarder_upstream_failovers_total": MetricSpec(
        "counter", "Upstream resolvers skipped after transport failure"
    ),
    "repro_forwarder_ede_total": MetricSpec(
        "counter", "EDE options relayed or originated by the forwarder",
        ("origin",),  # origin: forwarded | generated
    ),
    # -- resilient frontend ------------------------------------------------
    "repro_frontend_datagrams_total": MetricSpec(
        "counter", "Datagrams that reached the overload-shedding frontend"
    ),
    "repro_frontend_shed_total": MetricSpec(
        "counter", "Cache-miss work shed under overload",
        ("reason",),  # reason: rrl | inflight-cap | garbage
    ),
    "repro_frontend_responses_total": MetricSpec(
        "counter", "Frontend responses by outcome",
        # outcome: answered | cached | refused | truncated | formerr | servfail
        ("outcome",),
    ),
    "repro_frontend_served_cached_total": MetricSpec(
        "counter", "Always-served cache/stale answers while shedding"
    ),
    "repro_frontend_inflight": MetricSpec(
        "gauge", "Concurrent cache-miss resolutions in flight"
    ),
    # -- resolver cluster --------------------------------------------------
    "repro_cluster_routed_total": MetricSpec(
        "counter", "Queries routed to each shard by the consistent-hash router",
        ("shard",),
    ),
    "repro_cluster_l2_total": MetricSpec(
        "counter", "Shared L2 infra-cache tier outcomes",
        ("outcome",),  # outcome: hit | miss | store
    ),
    "repro_cluster_imbalance_ratio": MetricSpec(
        "gauge", "Max shard load over the mean routed load (1.0 = even)"
    ),
    "repro_cluster_shards": MetricSpec(
        "gauge", "Shard count of the running resolver cluster"
    ),
    "repro_cluster_ejections_total": MetricSpec(
        "counter", "Shards ejected from the routing ring by health checks",
        ("shard",),
    ),
    "repro_cluster_failover_routed_total": MetricSpec(
        "counter",
        "Queries routed away from a down or ejected shard to a successor",
        ("shard",),  # shard: the one routed *away from*
    ),
    "repro_cluster_probe_total": MetricSpec(
        "counter", "Half-open probes against ejected shards",
        ("outcome",),  # outcome: ok | fail
    ),
    # -- scanner -----------------------------------------------------------
    "repro_scan_phase_domains_total": MetricSpec(
        "counter", "Domains completed per scan phase", ("phase",)
    ),
    "repro_scan_phase_virtual_seconds": MetricSpec(
        "gauge", "Virtual makespan of each scan phase", ("phase",)
    ),
    "repro_scan_records_total": MetricSpec(
        "counter", "Scan records emitted", ("outcome",)  # outcome: ok | error
    ),
    "repro_scan_progress_domains": MetricSpec(
        "gauge", "Domains completed so far in the running scan"
    ),
}
