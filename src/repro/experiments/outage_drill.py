"""Chaos "outage drill": graceful degradation, end to end, deterministic.

The drill reproduces the serving behaviour the paper observed on
Cloudflare's public resolver — stale answers with Stale Answer (3) and
Stale NXDOMAIN Answer (19) while an authoritative is down, fresh
answers immediately after recovery — on a tiny seeded world, and
asserts every phase's counters exactly:

1. **Warm**: resolve a positive and a negative name; both cached.
2. **Expire**: the virtual clock jumps past every TTL.
3. **Outage**: a chaos schedule takes the domain's only authoritative
   down.  Every query is answered from stale cache (EDE 3 / EDE 19,
   RFC 8767 30-second TTL) *within the client deadline budget*; the
   circuit breaker opens after the configured failure threshold, so
   upstream query volume collapses versus the PR-1 retry behaviour
   (a no-resilience resolver drilled through the same outage).
4. **Recovery**: after the cooldown a single half-open probe restores
   fresh resolution and closes the breaker.
5. **Overload**: a seeded burst through the shedding UDP frontend —
   cache hits and stale answers are always served, cache-miss work
   beyond the per-client budget is REFUSED + Prohibited (18), garbage
   datagrams get FORMERR, and nothing ever raises.

Each phase's counters must be *identical* for every seed (the seed only
reorders the overload interleaving and feeds the chaos RNG, which a
pure time-windowed outage never consults).  CI runs the drill under
``REPRO_SANITIZER=1``: any wall-clock or global-RNG access raises.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext

from ..analysis.sanitizer import determinism_sanitizer
from ..dns.message import Message
from ..dns.name import Name
from ..dns.rcode import Rcode
from ..dns.rdata import A, NS
from ..dns.rrset import RRset
from ..dns.types import RdataType
from ..net.chaos import ChaosPolicy, Outage
from ..net.clock import SimulatedClock
from ..net.fabric import NetworkFabric
from ..resolver.cache import STALE_TTL, default_cache_config
from ..resolver.profiles import CLOUDFLARE
from ..resolver.recursive import RecursiveResolver
from ..resolver.resilience import (
    BreakerConfig,
    FrontendConfig,
    ResilienceConfig,
    ResilientFrontend,
)
from ..server.authoritative import AuthoritativeServer
from ..zones.builder import ZoneBuilder, address_rrset
from ..zones.mutations import ZoneMutation
from .report import ExperimentReport

ROOT_IP, TLD_IP, DOM_IP = "192.0.9.1", "192.0.9.2", "192.0.9.3"
WWW = "www.drill.test."
GONE = "gone.drill.test."

CLIENT_DEADLINE = 1.5
OUTAGE_ROUNDS = 6
OUTAGE_WINDOW = (0.0, 300.0)

#: Expected phase counters — identical for every seed; CI fails on any
#: drift.  Derivation: during the outage the resilient resolver spends
#: exactly 3 upstream queries — three deadline-clamped client attempts
#: (www, gone, www again), each a deadline hit — before the server
#: breaker (failure threshold 3) and then the zone breaker open; every
#: later round and every background refresh attempt short-circuits with
#: no packets.  The baseline resolver re-times-out twice per query,
#: every round.
EXPECTED = {
    "ede3": OUTAGE_ROUNDS,
    "ede19": OUTAGE_ROUNDS,
    "stale_served": OUTAGE_ROUNDS + 1,  # +1 via the shed frontend check
    "stale_nxdomain_served": OUTAGE_ROUNDS,
    "deadline_hits": 3,
    "refresh_attempts_during_outage": 2,
    "refreshed_ok": 2,
    "breaker_opened": 2,  # the server breaker and the zone breaker
    "probe_successes": 2,  # both half-open probes succeed on recovery
    "outage_upstream_queries": 3,
    "baseline_upstream_queries": 24,
    "fe_datagrams": 42,
    "fe_answered": 16,
    "fe_served_cached": 12,
    "fe_shed_refused": 12,
    "fe_bucket_sheds": 24,
    "fe_formerr": 2,
    "fe_handler_errors": 0,
    "fe0_inflight_sheds": 2,
    "fe0_served_cached": 1,
    "fe0_shed_refused": 1,
}


def _build_world() -> NetworkFabric:
    """root -> test. -> drill.test. (one server each, unsigned)."""
    fabric = NetworkFabric(clock=SimulatedClock())
    below = None  # (builder, nameservers) of the zone hosted last
    for origin_text, ip in (("drill.test.", DOM_IP), ("test.", TLD_IP), (".", ROOT_IP)):
        origin = Name.from_text(origin_text)
        ns1 = Name.from_text("ns1", origin=origin)
        builder = ZoneBuilder(
            origin,
            now=int(fabric.clock.now()),
            mutation=ZoneMutation(algorithm=13, signed=False),
        )
        builder.add(RRset.of(origin, RdataType.NS, NS(target=ns1)))
        builder.add(address_rrset(ns1, ip))
        builder.ensure_soa()
        if below is None:
            builder.add(RRset.of(Name.from_text(WWW), RdataType.A, A(address="192.0.2.80")))
        else:
            builder.delegate(*below)
        server = AuthoritativeServer(f"ns1.{origin_text}")
        server.add_zone(builder.build().zone)
        fabric.register(ip, server)
        below = (builder, [(ns1, ip)])
    return fabric


def _make_query(qname: str, rng: random.Random) -> bytes:
    return Message.make_query(
        Name.from_text(qname), RdataType.A, want_dnssec=False,
        recursion_desired=True, rng=rng,
    ).to_wire()


def _run_drill(seed: int) -> dict:
    counters: dict[str, int] = {}

    # Two identical worlds: the resilient resolver under test, and a
    # PR-1-behaviour baseline (retries, serve-stale, no breakers or
    # deadlines) to measure the upstream query volume it would burn.
    world = _build_world()
    resolver = RecursiveResolver(
        fabric=world, profile=CLOUDFLARE, root_hints=[ROOT_IP], validate=False,
        resilience=ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=3, cooldown=30.0),
            client_deadline=CLIENT_DEADLINE,
        ),
        cache_config=default_cache_config(),
    )
    baseline_world = _build_world()
    baseline = RecursiveResolver(
        fabric=baseline_world, profile=CLOUDFLARE, root_hints=[ROOT_IP],
        validate=False, cache_config=default_cache_config(),
    )

    # Phase 1 — warm both caches (positive + negative).
    for res in (resolver, baseline):
        fresh = res.resolve(WWW, RdataType.A)
        assert fresh.rcode == Rcode.NOERROR and not fresh.ede_codes
        negative = res.resolve(GONE, RdataType.A)
        assert negative.rcode == Rcode.NXDOMAIN

    # Phase 2 — everything expires (but stays within the stale window).
    world.clock.advance(7200)
    baseline_world.clock.advance(7200)

    # Phase 3 — scheduled outage of the domain's only authoritative.
    world.install_chaos(ChaosPolicy(
        seed=seed, outages=[Outage(*OUTAGE_WINDOW, target=DOM_IP)],
    ))
    baseline_world.install_chaos(ChaosPolicy(
        seed=seed, outages=[Outage(*OUTAGE_WINDOW, target=DOM_IP)],
    ))
    resilient_before = resolver.engine.stats.queries
    baseline_before = baseline.engine.stats.queries
    ede3 = ede19 = 0
    deadline_ok = True
    stale_ttl_ok = True
    for _ in range(OUTAGE_ROUNDS):
        started = world.clock.now()
        stale = resolver.resolve(WWW, RdataType.A)
        deadline_ok &= (world.clock.now() - started) <= CLIENT_DEADLINE + 1e-9
        if stale.rcode == Rcode.NOERROR and 3 in stale.ede_codes:
            ede3 += 1
        stale_ttl_ok &= all(r.ttl == STALE_TTL for r in stale.answer)

        started = world.clock.now()
        nx = resolver.resolve(GONE, RdataType.A)
        deadline_ok &= (world.clock.now() - started) <= CLIENT_DEADLINE + 1e-9
        if nx.rcode == Rcode.NXDOMAIN and 19 in nx.ede_codes:
            ede19 += 1
        stale_ttl_ok &= all(r.ttl <= STALE_TTL for r in nx.authority)

        baseline.resolve(WWW, RdataType.A)
        baseline.resolve(GONE, RdataType.A)
        world.clock.advance(2.0)
        baseline_world.clock.advance(2.0)

    # Stale is always served, even through a fully-shedding frontend.
    rng = random.Random(seed)
    shed_all = ResilientFrontend(resolver, FrontendConfig(max_inflight=0))
    wire = shed_all.handle_datagram(_make_query(WWW, rng), "203.0.113.99")
    shed_stale = Message.from_wire(wire)
    assert shed_stale.rcode == Rcode.NOERROR and 3 in shed_stale.ede_codes
    stale_ttl_ok &= all(r.ttl == STALE_TTL for r in shed_stale.answer)

    # Stale-while-revalidate under fire: the frontend answer above already
    # drained one background refresh attempt; drain the rest explicitly.
    # With the zone breaker open every attempt fails fast (no upstream
    # packets) and is rescheduled with a back-off rather than dropped.
    resolver.run_refreshes(limit=4)
    counters["refresh_attempts_during_outage"] = resolver.stats.refreshes

    counters["ede3"] = ede3
    counters["ede19"] = ede19
    counters["deadline_ok"] = int(deadline_ok)
    counters["stale_ttl_ok"] = int(stale_ttl_ok)
    counters["outage_upstream_queries"] = (
        resolver.engine.stats.queries - resilient_before
    )
    counters["baseline_upstream_queries"] = (
        baseline.engine.stats.queries - baseline_before
    )
    counters["breaker_opened"] = resolver.engine.breakers.stats.opened
    counters["short_circuits_during_outage"] = (
        resolver.engine.breakers.stats.short_circuits
    )

    # Phase 4 — recovery: past the outage window and the cooldown, a
    # single half-open probe per breaker restores fresh resolution.
    world.clock.advance(400)
    baseline_world.clock.advance(400)
    fresh = resolver.resolve(WWW, RdataType.A)
    assert fresh.rcode == Rcode.NOERROR and not fresh.ede_codes
    nx = resolver.resolve(GONE, RdataType.A)
    assert nx.rcode == Rcode.NXDOMAIN and not nx.ede_codes
    counters["probe_successes"] = resolver.engine.breakers.stats.probe_successes
    counters["breakers_closed_after_recovery"] = int(
        not resolver.engine.breakers.open_keys()
    )
    # The rescheduled refreshes are now due and the breakers are closed:
    # both names come back fresh and leave the revalidation queue.
    resolver.run_refreshes(limit=4)
    counters["stale_served"] = resolver.stats.stale_served
    counters["stale_nxdomain_served"] = resolver.stats.stale_nxdomain_served
    counters["deadline_hits"] = resolver.stats.deadline_hits
    counters["refreshed_ok"] = resolver.stats.refreshed_ok

    # Phase 5 — seeded overload burst through the shedding frontend.
    # Each client's sequence is fixed; only the cross-client
    # interleaving varies with the seed, so every counter is
    # seed-independent (per-client token buckets, rate 0 = pure burst).
    frontend = ResilientFrontend(resolver, FrontendConfig(
        client_rate=0.0, client_burst=4.0, max_inflight=8,
    ))
    pending: dict[str, list[bytes]] = {}
    for i in range(4):
        client = f"203.0.113.{10 + i}"
        names = [WWW if j % 2 == 0 else f"m{i}-{j}.drill.test." for j in range(10)]
        pending[client] = [_make_query(name, rng) for name in names]
    shed_wires = []
    while pending:
        client = sorted(pending)[rng.randrange(len(pending))]
        wire = frontend.handle_datagram(pending[client].pop(0), client)
        assert wire is not None
        response = Message.from_wire(wire)
        if response.rcode == Rcode.REFUSED:
            shed_wires.append(response)
        if not pending[client]:
            del pending[client]
    # Every shed answer carries Prohibited (18).
    refused_with_18 = sum(1 for r in shed_wires if 18 in r.ede_codes)
    counters["fe_refused_with_ede18"] = int(refused_with_18 == len(shed_wires))
    # Garbage datagrams: FORMERR, never an exception.
    short = frontend.handle_datagram(b"\x07", "203.0.113.66")
    counters["fe_short_garbage_formerr"] = int(
        Message.from_wire(short).rcode == Rcode.FORMERR
    )
    garbage = bytes([0xAB] * 16)
    echoed = frontend.handle_datagram(garbage, "203.0.113.66")
    counters["fe_garbage_id_echoed"] = int(
        echoed[:2] == garbage[:2] and (echoed[3] & 0x0F) == Rcode.FORMERR
        and bool(echoed[2] & 0x80)
    )
    counters["fe_datagrams"] = frontend.stats.datagrams
    counters["fe_answered"] = frontend.stats.answered
    counters["fe_served_cached"] = frontend.stats.served_cached
    counters["fe_shed_refused"] = frontend.stats.shed_refused
    counters["fe_bucket_sheds"] = frontend.stats.bucket_sheds
    counters["fe_formerr"] = frontend.stats.formerr
    counters["fe_handler_errors"] = frontend.stats.handler_errors

    # A zero-inflight frontend sheds every cache miss but still serves hits.
    fe0 = ResilientFrontend(resolver, FrontendConfig(max_inflight=0))
    hit = Message.from_wire(fe0.handle_datagram(_make_query(WWW, rng), "203.0.113.77"))
    miss = Message.from_wire(
        fe0.handle_datagram(_make_query("never.drill.test.", rng), "203.0.113.77")
    )
    assert hit.rcode == Rcode.NOERROR
    assert miss.rcode == Rcode.REFUSED
    counters["fe0_inflight_sheds"] = fe0.stats.inflight_sheds
    counters["fe0_served_cached"] = fe0.stats.served_cached
    counters["fe0_shed_refused"] = fe0.stats.shed_refused
    return counters


def experiment_outage_drill(seeds: tuple[int, ...] = (1, 20230524)) -> ExperimentReport:
    report = ExperimentReport(
        "outage_drill", "Graceful-degradation outage drill (resilience layer)"
    )
    guard = (
        determinism_sanitizer()
        if os.environ.get("REPRO_SANITIZER")
        else nullcontext()
    )
    with guard:
        runs = {seed: _run_drill(seed) for seed in seeds}

    first = runs[seeds[0]]
    report.check(
        "counters identical across seeds",
        True,
        all(runs[seed] == first for seed in seeds),
        all(runs[seed] == first for seed in seeds),
        note=f"seeds {', '.join(str(s) for s in seeds)}",
    )
    for metric, expected in EXPECTED.items():
        measured = first.get(metric)
        report.check(metric, expected, measured, measured == expected)
    for flag in (
        "deadline_ok",
        "stale_ttl_ok",
        "breakers_closed_after_recovery",
        "fe_refused_with_ede18",
        "fe_short_garbage_formerr",
        "fe_garbage_id_echoed",
    ):
        report.check(flag, 1, first[flag], first[flag] == 1)
    ratio = first["baseline_upstream_queries"] / max(
        1, first["outage_upstream_queries"]
    )
    report.check(
        "breaker-open upstream volume reduction",
        ">= 5x",
        f"{ratio:.1f}x",
        ratio >= 5.0,
        note="vs PR-1 retry behaviour through the same outage",
    )
    report.body = "\n".join(
        f"{metric}: {value}" for metric, value in sorted(first.items())
    )
    return report
