"""Which public callables carry a span, and what each layer metric is.

Layers are the ``src/repro`` packages.  :func:`install` is the whole
coupling between this benchmark and the code it measures: a name that
moves or disappears fails loudly here, at install time.
"""

from __future__ import annotations

from .trace import LayerTotals, Tracer

#: (name, unit, better, what it is) — the order BENCHMARK.json lists them.
PER_LAYER = [
    ("dns.from_wire_calls_per_op", "count", "lower", "Message.from_wire calls"),
    ("dns.from_wire_self_us_per_op", "us", "lower", "wire decode self time"),
    ("dns.to_wire_calls_per_op", "count", "lower", "Message.to_wire calls"),
    ("dns.to_wire_self_us_per_op", "us", "lower", "wire encode self time"),
    ("dns.bytes_per_op", "B", "lower", "fabric bytes sent + received"),
    ("net.send_calls_per_op", "count", "lower", "NetworkFabric.send calls"),
    ("net.send_self_us_per_op", "us", "lower", "fabric dispatch minus endpoint handler"),
    ("net.timeouts_per_op", "count", "lower", "sends that timed out (fabric counter)"),
    ("net.lane_run_self_us_per_op", "us", "lower", "pool time no lane was busy: hand-off cost"),
    ("net.lane_wait_calls_per_op", "count", "lower", "lane_wait + lane_advance calls"),
    ("net.lane_wait_us_per_op", "us", "lower", "time lanes spent parked (waited, not busy)"),
    ("server.handle_calls_per_op", "count", "lower", "authoritative/TLD/hosting handler calls"),
    ("server.handle_self_us_per_op", "us", "lower", "authoritative answer construction"),
    ("dnssec.validate_calls_per_op", "count", "lower", "Validator.validate calls"),
    ("dnssec.validate_self_us_per_op", "us", "lower", "chain walking minus fetches and verifies"),
    ("dnssec.verify_calls_per_op", "count", "lower", "verify_signature calls"),
    ("dnssec.verify_self_us_per_op", "us", "lower", "signature verification (pure-python RSA)"),
    ("dnssec.keygen_self_s", "s", "lower", "KeyPair.generate during set-up"),
    ("dnssec.sign_calls", "count", "lower", "sign_rrset calls during set-up + cold pass"),
    ("dnssec.sign_self_s", "s", "lower", "sign_rrset self time during set-up + cold pass"),
    ("zones.build_calls", "count", "lower", "ZoneBuilder.build calls, lazy ones included"),
    ("zones.build_self_s", "s", "lower", "zone assembly minus keygen and signing"),
    ("resolver.resolve_self_us_per_op", "us", "lower", "recursion + iteration minus everything below"),
    ("resolver.cache_get_calls_per_op", "count", "lower", "ResolverCache.get_* calls"),
    ("resolver.cache_put_calls_per_op", "count", "lower", "ResolverCache.put_* calls"),
    ("resolver.cache_self_us_per_op", "us", "lower", "cache gets + puts self time"),
    ("resolver.cache_hit_share", "fraction", "higher", "cache gets that returned an entry"),
    ("resolver.infra_hit_share", "fraction", "higher", "infra-cache hits / lookups (resolver.stats)"),
    ("resolver.coalesced_per_op", "count", "higher", "resolutions + fetches that piggybacked"),
    ("resolver.stale_served_share", "fraction", "lower", "ops answered from stale data"),
    ("resolver.ede_calls_per_op", "count", "lower", "EdePolicy.emissions calls"),
    ("resolver.ede_self_us_per_op", "us", "lower", "outcome -> vendor EDE mapping"),
    ("resolver.frontend_self_us_per_op", "us", "lower", "frontend policy minus resolver and codec"),
    ("scan.scan_self_us_per_op", "us", "lower", "WildScanner.scan loop and record building"),
    ("scan.report_self_ms", "ms", "lower", "analyze + figure series, per pass"),
    ("scan.population_s", "s", "lower", "generate_population during set-up"),
    ("scan.universe_build_s", "s", "lower", "WildInternet() minus zone builds beneath it"),
    ("testbed.build_s", "s", "lower", "build_testbed minus zone builds beneath it"),
    ("testbed.matrix_self_us_per_op", "us", "lower", "run_matrix loop minus resolutions"),
    ("obs.inc_calls_per_op", "count", "lower", "metric entry points hit (count only)"),
    ("other.self_us_per_op", "us", "lower", "pass span minus every layer: the generator"),
    ("trace.overhead_share", "fraction", "lower", "1 - traced ops/s / untraced ops/s"),
    ("model.virtual_ops_per_s", "op/vs", "higher", "ops per *virtual* second (simulated)"),
]


def install(tracer: Tracer) -> None:
    """Put a span on every layer boundary.  Import late: the imports
    themselves must not be part of what set-up measures."""
    from repro.dns.message import Message
    from repro.dnssec import keys, signer
    from repro.dnssec.validator import Validator
    from repro.net.fabric import NetworkFabric
    from repro.net.lanes import VirtualLanePool
    from repro.obs import metrics
    from repro.resolver.cache import ResolverCache
    from repro.resolver.ede_policy import EdePolicy
    from repro.resolver.recursive import RecursiveResolver
    from repro.resolver.resilience import ResilientFrontend
    from repro.scan import wild
    from repro.server.authoritative import AuthoritativeServer
    from repro.server.behaviors import BehaviorServer
    from repro.zones.builder import ZoneBuilder

    method = tracer.patch_method
    method(Message, "from_wire", "dns.from_wire")
    method(Message, "to_wire", "dns.to_wire")
    method(NetworkFabric, "send", "net.send")
    method(VirtualLanePool, "run", "net.lane_run", pool=True)
    method(VirtualLanePool, "lane_wait", "net.lane_wait")
    method(VirtualLanePool, "lane_advance", "net.lane_wait")
    for server in (
        AuthoritativeServer, BehaviorServer, wild.VirtualTldServer,
        wild.HostingServer, wild.StaleFlippingServer, wild.CnameLoopServer,
    ):
        for attr in ("handle_datagram", "handle_stream", "handle_paved"):
            if attr in server.__dict__:
                method(server, attr, "server.handle")
    method(Validator, "validate", "dnssec.validate")
    tracer.patch_function(keys, "verify_signature", "dnssec.verify")
    method(keys.KeyPair, "generate", "dnssec.keygen")
    tracer.patch_function(signer, "sign_rrset", "dnssec.sign")
    method(ZoneBuilder, "build", "zones.build")
    method(RecursiveResolver, "resolve", "resolver.resolve", op_root=True, collect=True)
    method(RecursiveResolver, "handle_query", "resolver.resolve", collect=True)
    method(RecursiveResolver, "run_refreshes", "resolver.resolve")
    for attr in ("get_rrset", "get_stale_rrset", "get_negative", "get_stale_negative", "get_error"):
        method(ResolverCache, attr, "resolver.cache_get", hits=True)
    for attr in ("put_rrset", "put_negative", "put_error"):
        method(ResolverCache, attr, "resolver.cache_put")
    method(EdePolicy, "emissions", "resolver.ede")
    method(ResilientFrontend, "handle_datagram", "resolver.frontend", op_root=True)
    # The obs entry points are a few bytecodes each; timing them would
    # measure the wrapper.  Their cost stays in the caller's self time.
    for instrument in (type(metrics.NULL_INSTRUMENT), metrics.MetricFamily):
        for attr in ("inc", "set", "observe", "labels"):
            method(instrument, attr, "obs.inc", count_only=True)


_ZERO = LayerTotals()


def derive(
    setup: dict[str, LayerTotals],
    passes: dict[str, LayerTotals],
    ops: int,
    facts: dict,
) -> dict[str, float]:
    """Every PER_LAYER metric from the reduced spans and plain counters.

    ``setup`` covers set-up and the cold pass, ``passes`` the traced
    timed passes, ``ops`` the ops in those passes.  ``facts`` carries
    what is counted rather than timed: fabric and resolver counters,
    the wrappers' hit counts, and the traced/untraced rates.
    """

    def calls(name):
        return passes.get(name, _ZERO).calls / ops

    def self_us(name):
        return passes.get(name, _ZERO).busy_s * 1e6 / ops

    def once(name, field="busy_s"):
        return float(getattr(setup.get(name, _ZERO), field))

    gets = passes.get("resolver.cache_get", _ZERO).calls
    infra = facts["infra_hits"] + facts["infra_misses"]
    values = {
        "dns.from_wire_calls_per_op": calls("dns.from_wire"),
        "dns.from_wire_self_us_per_op": self_us("dns.from_wire"),
        "dns.to_wire_calls_per_op": calls("dns.to_wire"),
        "dns.to_wire_self_us_per_op": self_us("dns.to_wire"),
        "dns.bytes_per_op": facts["bytes"] / ops,
        "net.send_calls_per_op": calls("net.send"),
        "net.send_self_us_per_op": self_us("net.send"),
        "net.timeouts_per_op": facts["timeouts"] / ops,
        "net.lane_run_self_us_per_op": self_us("net.lane_run"),
        "net.lane_wait_calls_per_op": calls("net.lane_wait"),
        "net.lane_wait_us_per_op": passes.get("net.lane_wait", _ZERO).wait_s * 1e6 / ops,
        "server.handle_calls_per_op": calls("server.handle"),
        "server.handle_self_us_per_op": self_us("server.handle"),
        "dnssec.validate_calls_per_op": calls("dnssec.validate"),
        "dnssec.validate_self_us_per_op": self_us("dnssec.validate"),
        "dnssec.verify_calls_per_op": calls("dnssec.verify"),
        "dnssec.verify_self_us_per_op": self_us("dnssec.verify"),
        "dnssec.keygen_self_s": once("dnssec.keygen"),
        "dnssec.sign_calls": once("dnssec.sign", "calls"),
        "dnssec.sign_self_s": once("dnssec.sign"),
        "zones.build_calls": once("zones.build", "calls"),
        "zones.build_self_s": once("zones.build"),
        "resolver.resolve_self_us_per_op": self_us("resolver.resolve"),
        "resolver.cache_get_calls_per_op": calls("resolver.cache_get"),
        "resolver.cache_put_calls_per_op": calls("resolver.cache_put"),
        "resolver.cache_self_us_per_op": self_us("resolver.cache_get") + self_us("resolver.cache_put"),
        "resolver.cache_hit_share": facts["cache_get_hits"] / gets if gets else 0.0,
        "resolver.infra_hit_share": facts["infra_hits"] / infra if infra else 0.0,
        "resolver.coalesced_per_op": facts["coalesced"] / ops,
        "resolver.stale_served_share": facts["stale_served"] / ops,
        "resolver.ede_calls_per_op": calls("resolver.ede"),
        "resolver.ede_self_us_per_op": self_us("resolver.ede"),
        "resolver.frontend_self_us_per_op": self_us("resolver.frontend"),
        "scan.scan_self_us_per_op": self_us("scan.scan"),
        "scan.report_self_ms": passes.get("scan.report", _ZERO).busy_s * 1e3 / facts["passes"],
        "scan.population_s": once("scan.population"),
        "scan.universe_build_s": once("scan.universe_build"),
        "testbed.build_s": once("testbed.build"),
        "testbed.matrix_self_us_per_op": self_us("testbed.matrix"),
        "obs.inc_calls_per_op": facts["obs_calls"] / ops,
        "other.self_us_per_op": self_us("pass"),
        "trace.overhead_share": 1.0 - facts["traced_ops_per_s"] / facts["untraced_ops_per_s"],
        "model.virtual_ops_per_s": facts["virtual_ops_per_s"],
    }
    return values
