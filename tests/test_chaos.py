"""Deterministic fault injection and the hardened resolver/scan path.

Every test here must hold for *any* chaos seed — CI runs the suite
twice with different ``REPRO_CHAOS_SEED`` values.  The core contract is
the one the module docstring of :mod:`repro.net.chaos` makes: same
seed, same schedule, same virtual clock ⇒ byte-identical runs.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rcode import Rcode
from repro.dns.rdata import TXT
from repro.dns.render import header_reply
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.trace import ResolutionEvent
from repro.net.chaos import (
    ChaosPolicy,
    Impairment,
    LinkFlap,
    Outage,
    target_matches,
)
from repro.net.endpoint import Endpoint
from repro.net.fabric import Timeout
from repro.resolver.cache import CacheConfig, ResolverCache
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.server_stats import LAME_TTL, ServerStatsBook
from repro.scan.io import scanned_names
from repro.scan.population import PopulationConfig, Profile, generate_population
from repro.scan.scanner import WildScanner
from repro.scan.wild import WildInternet, tld_server_address

pytestmark = pytest.mark.chaos

#: The determinism contract must hold for any seed; CI exercises two.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: A tiny-but-structurally-complete universe (~300 domains, every
#: profile represented) so chaos scans stay fast enough to repeat.
SMALL_UNIVERSE = PopulationConfig(
    scale=1_000_000, rare_threshold=3, seed=5, n_gtlds=60, n_cctlds=12
)

QNAME = Name.from_text("probe.example.test.")
SERVER = "93.184.216.34"


def build_wild() -> WildInternet:
    return WildInternet(generate_population(SMALL_UNIVERSE))


def storm_policy(seed: int) -> ChaosPolicy:
    """Everything at once: loss, jitter, duplication, reordering,
    corruption, a hosting outage, and one flapping TLD server."""
    return ChaosPolicy(
        seed=seed,
        impairments=[
            Impairment(
                loss_rate=0.15,
                latency_jitter=0.02,
                duplicate_rate=0.05,
                reorder_rate=0.05,
                corrupt_rate=0.01,
            )
        ],
        outages=[Outage(start=40.0, end=400.0, target="45.*")],
        flaps=[LinkFlap(period=60.0, up_fraction=0.5, target=tld_server_address(0))],
    )


def run_chaos_scan(seed: int):
    wild = build_wild()
    wild.fabric.install_chaos(storm_policy(seed))
    result = WildScanner(wild).scan()
    rows = [
        (r.name, r.rcode, r.ede_codes, r.extra_texts, r.error) for r in result.records
    ]
    return (
        rows,
        result.by_code(),
        dataclasses.asdict(wild.fabric.stats),
        dataclasses.asdict(wild.fabric.chaos.stats),
    )


class _Responder(Endpoint):
    """Minimal well-behaved authoritative endpoint."""

    def __init__(self):
        self.calls = 0

    def handle_query(self, query: Message, source: str) -> Message:
        self.calls += 1
        return query.make_response()


class _Silent(Endpoint):
    """Accepts every query, answers none (pure timeout source)."""

    def handle_query(self, query: Message, source: str) -> None:
        return None


class _WrongIdServer(Endpoint):
    """Answers with a response whose ID never matches the query."""

    def __init__(self):
        self.query_ids: list[int] = []

    def handle_query(self, query: Message, source: str) -> Message:
        self.query_ids.append(query.id)
        response = query.make_response()
        response.id = (query.id + 1) & 0xFFFF
        return response


class _Truncating(Endpoint):
    """Answers more than a datagram holds: the door sends UDP its TC=1
    form and TCP the whole reply."""

    def handle_query(self, query: Message, source: str) -> Message:
        response = query.make_response()
        response.answer.append(RRset.of(
            query.question[0].name, RdataType.TXT,
            *[TXT(strings=(bytes([97 + i]) * 200,)) for i in range(10)],
        ))
        return response


class _TruncatingBadTcp(_Truncating):
    """Truncates over UDP, then spoofs a wrong-ID answer over TCP."""

    def handle_stream(self, wire: bytes, source: str) -> bytes:
        reply = bytearray(super().handle_stream(wire, source))
        reply[0] ^= 0x12
        return bytes(reply)


class _TruncatingRefusedTcp(_Truncating):
    """Truncates over UDP, answers REFUSED (valid ID) over TCP."""

    def handle_stream(self, wire: bytes, source: str) -> bytes:
        return header_reply(wire, Rcode.REFUSED)


# ---------------------------------------------------------------------------
# Chaos primitives


class TestChaosPrimitives:
    def test_target_matching(self):
        assert target_matches(None, "1.2.3.4")
        assert target_matches("43.0.0.1", "43.0.0.1")
        assert not target_matches("43.0.0.1", "43.0.0.2")
        assert target_matches("43.*", "43.200.1.1")
        assert not target_matches("43.*", "44.0.0.1")
        assert target_matches(lambda a: a.endswith(".1"), "45.0.0.1")

    def test_outage_window(self):
        outage = Outage(start=10.0, end=20.0)
        assert not outage.active(9.9)
        assert outage.active(10.0)
        assert outage.active(19.9)
        assert not outage.active(20.0)

    def test_flap_duty_cycle(self):
        flap = LinkFlap(period=10.0, up_fraction=0.3)
        assert flap.up(0.0)
        assert flap.up(2.9)
        assert not flap.up(3.0)
        assert not flap.up(9.9)
        assert flap.up(10.1)

    def test_rate_limit_refusal_preserves_id_and_question(self):
        """The rate limiter's REFUSED is the query echoed, so it passes
        the resolver's ID, question and EDNS checks."""
        query = Message.make_query(QNAME, RdataType.A, want_dnssec=True, msg_id=4242)
        response = Message.from_wire(header_reply(query.to_wire(), Rcode.REFUSED))
        assert response.qr
        assert response.rcode == Rcode.REFUSED
        assert response.id == 4242
        assert response.question[0].name == QNAME
        assert response.edns is not None  # the OPT record rode along


class TestChaosFabric:
    def test_outage_times_out_then_recovers(self, fabric):
        fabric.register(SERVER, _Responder())
        fabric.install_chaos(
            ChaosPolicy(seed=CHAOS_SEED, outages=[Outage(start=0.0, end=50.0)])
        )
        wire = Message.make_query(QNAME, msg_id=1).to_wire()
        with pytest.raises(Timeout):
            fabric.send(SERVER, wire)
        assert fabric.chaos.stats.outage_drops == 1
        fabric.clock.advance(60.0)
        assert fabric.send(SERVER, wire) is not None

    def test_flap_downtime_drops(self, fabric):
        fabric.register(SERVER, _Responder())
        fabric.install_chaos(
            ChaosPolicy(
                seed=CHAOS_SEED, flaps=[LinkFlap(period=10.0, up_fraction=0.5)]
            )
        )
        wire = Message.make_query(QNAME, msg_id=2).to_wire()
        assert fabric.send(SERVER, wire) is not None  # elapsed 0: up
        fabric.clock.advance(6.0)
        with pytest.raises(Timeout):  # elapsed ~6: down half of the period
            fabric.send(SERVER, wire)
        assert fabric.chaos.stats.flap_drops == 1

    def test_rate_limit_synthesizes_refused(self, fabric):
        responder = _Responder()
        fabric.register(SERVER, responder)
        fabric.install_chaos(
            ChaosPolicy(
                seed=CHAOS_SEED, impairments=[Impairment(rate_limit_qps=2)]
            )
        )
        wire = Message.make_query(QNAME, msg_id=3).to_wire()
        rcodes = [
            Message.from_wire(fabric.send(SERVER, wire)).rcode for _ in range(4)
        ]
        assert rcodes == [Rcode.NOERROR, Rcode.NOERROR, Rcode.REFUSED, Rcode.REFUSED]
        assert fabric.chaos.stats.rate_limited == 2
        assert responder.calls == 2  # refused queries never reach the server

    def test_duplicate_reaches_endpoint_twice(self, fabric):
        responder = _Responder()
        fabric.register(SERVER, responder)
        fabric.install_chaos(
            ChaosPolicy(
                seed=CHAOS_SEED, impairments=[Impairment(duplicate_rate=1.0)]
            )
        )
        wire = Message.make_query(QNAME, msg_id=4).to_wire()
        assert fabric.send(SERVER, wire) is not None
        assert responder.calls == 2
        assert fabric.chaos.stats.duplicated == 1

    def test_zero_knob_policy_consumes_no_randomness(self, fabric):
        fabric.register(SERVER, _Responder())
        fabric.install_chaos(ChaosPolicy(seed=CHAOS_SEED))
        state = fabric.chaos._rng.getstate()
        wire = Message.make_query(QNAME, msg_id=5).to_wire()
        for _ in range(5):
            assert fabric.send(SERVER, wire) is not None
        assert fabric.chaos._rng.getstate() == state


# ---------------------------------------------------------------------------
# Hardened engine


class TestHardenedEngine:
    def test_wrong_id_rejected_with_fresh_retry_ids(self, fabric):
        server = _WrongIdServer()
        fabric.register(SERVER, server)
        engine = IterativeEngine(
            fabric, [SERVER], EngineConfig(retries=1, backoff_jitter=0.0)
        )
        events = []
        assert engine.query_server(SERVER, QNAME, RdataType.A, events) is None
        assert len(server.query_ids) == 2
        assert server.query_ids[0] != server.query_ids[1]  # fresh ID per attempt
        mismatches = [
            e for e in events if e.event is ResolutionEvent.MISMATCHED_ID
        ]
        assert len(mismatches) == 2
        assert engine.stats.mismatched_ids == 2

    def test_tcp_fallback_revalidates_id(self, fabric):
        fabric.register(SERVER, _TruncatingBadTcp())
        engine = IterativeEngine(fabric, [SERVER], EngineConfig(retries=0))
        events = []
        assert engine.query_server(SERVER, QNAME, RdataType.A, events) is None
        assert engine.stats.tcp_fallbacks == 1
        assert any(e.event is ResolutionEvent.MISMATCHED_ID for e in events)

    def test_tcp_fallback_checks_rcode(self, fabric):
        fabric.register(SERVER, _TruncatingRefusedTcp())
        engine = IterativeEngine(fabric, [SERVER], EngineConfig(retries=0))
        events = []
        assert engine.query_server(SERVER, QNAME, RdataType.A, events) is None
        assert any(e.event is ResolutionEvent.SERVER_REFUSED for e in events)

    def test_timeout_retries_back_off_on_virtual_clock(self, fabric):
        fabric.register(SERVER, _Silent())
        engine = IterativeEngine(
            fabric,
            [SERVER],
            EngineConfig(retries=2, backoff_base=0.4, backoff_jitter=0.0),
        )
        start = fabric.clock.now()
        events = []
        assert engine.query_server(SERVER, QNAME, RdataType.A, events) is None
        # 3 attempts x (0.01 latency + 2s timeout), backoffs 0.4 + 0.8
        assert fabric.clock.now() - start == pytest.approx(3 * 2.01 + 1.2)
        assert engine.stats.retries == 2
        assert engine.stats.backoff_seconds == pytest.approx(1.2)
        timeouts = [e for e in events if e.event is ResolutionEvent.SERVER_TIMEOUT]
        assert len(timeouts) == 3

    def test_adaptive_selection_only_under_chaos(self, fabric):
        servers = ["93.184.216.50", "93.184.216.51"]
        engine = IterativeEngine(fabric, servers, EngineConfig())
        engine.server_stats.note_lame(servers[0])
        # Seed behaviour: referral order, regardless of what the book says.
        assert engine._ordered_servers(servers) == servers
        fabric.install_chaos(ChaosPolicy(seed=CHAOS_SEED))
        assert engine._ordered_servers(servers) == [servers[1], servers[0]]
        fabric.remove_chaos()
        assert engine._ordered_servers(servers) == servers

    def test_query_budget_turns_into_servfail(self):
        wild = build_wild()
        resolver = RecursiveResolver(
            fabric=wild.fabric,
            profile=CLOUDFLARE,
            root_hints=wild.root_hints,
            trust_anchors=wild.trust_anchors,
            engine_config=EngineConfig(max_queries_per_resolution=2),
        )
        domain = next(
            d
            for d in wild.population.domains
            if Profile(d.profile) is Profile.VALID_UNSIGNED
        )
        # root -> TLD -> hosting needs at least 3 queries; 2 are allowed.
        response = resolver.resolve(Name.from_text(domain.fqdn), RdataType.A)
        assert response.rcode == Rcode.SERVFAIL
        assert resolver.stats.budget_exhausted == 1
        assert resolver.engine.stats.budget_exhaustions == 1


class TestServerStats:
    def test_order_prefers_fast_then_lame_last(self, clock):
        book = ServerStatsBook(clock)
        book.note_rtt("slow", 0.5)
        book.note_rtt("fast", 0.01)
        book.note_lame("lame")
        assert book.order(["lame", "slow", "fast"]) == ["fast", "slow", "lame"]

    def test_timeout_penalizes_srtt(self, clock):
        book = ServerStatsBook(clock)
        book.note_rtt("a", 0.05)
        before = book.effective_srtt("a")
        book.note_timeout("a")
        assert book.effective_srtt("a") > before

    def test_lameness_expires(self, clock):
        book = ServerStatsBook(clock)
        book.note_lame("a")
        assert book.is_lame("a")
        clock.advance(LAME_TTL + 1.0)
        assert not book.is_lame("a")


class TestCacheBounds:
    def test_error_and_negative_stores_are_bounded(self, clock):
        cache = ResolverCache(clock, CacheConfig(max_entries=10))
        for i in range(50):
            name = Name.from_text(f"err{i}.bound.test.")
            cache.put_error(name, RdataType.A, Rcode.SERVFAIL)
            cache.put_negative(name, RdataType.A, Rcode.NXDOMAIN, [], ttl=300)
        assert len(cache._errors) <= 10
        assert len(cache._negative) <= 10
        assert cache.stats.evictions > 0


# ---------------------------------------------------------------------------
# Chaos scans: determinism, resilience, resume


class TestChaosScanDeterminism:
    def test_same_seed_same_run(self):
        first = run_chaos_scan(CHAOS_SEED)
        second = run_chaos_scan(CHAOS_SEED)
        assert first[0] == second[0]  # per-domain rcode/EDE/EXTRA-TEXT rows
        assert first[1] == second[1]  # by-code histogram
        assert first[2] == second[2]  # FabricStats
        assert first[3] == second[3]  # ChaosStats

    def test_storm_actually_fires(self):
        rows, _by_code, fabric_stats, chaos_stats = run_chaos_scan(CHAOS_SEED)
        assert chaos_stats["decisions"] > 0
        assert chaos_stats["datagrams_lost"] > 0
        assert chaos_stats["outage_drops"] + chaos_stats["flap_drops"] > 0
        assert fabric_stats["datagrams_lost"] >= chaos_stats["datagrams_lost"]
        assert len(rows) == len({name for name, *_ in rows})  # one row per domain

    def test_no_chaos_runs_are_reproducible(self):
        def run():
            result = WildScanner(build_wild()).scan()
            return [
                (r.name, r.rcode, r.ede_codes, r.extra_texts) for r in result.records
            ]

        assert run() == run()


class TestScanResilience:
    def test_midscan_outage_yields_records_not_exception(self):
        wild = build_wild()
        # The single-phase pass only spans ~15 virtual seconds (hosting
        # answers are 10ms round trips); start the outage a few seconds
        # in so it lands mid-scan.
        wild.fabric.install_chaos(
            ChaosPolicy(
                seed=CHAOS_SEED,
                outages=[Outage(start=3.0, end=1e9, target="45.*")],
            )
        )
        result = WildScanner(wild).scan()
        assert len(result.records) == len(wild.population.domains)
        healthy = [
            r
            for r in result.records
            if Profile(r.profile) in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
        ]
        # Domains resolved after t=30 lost their hosting servers.
        assert any(r.rcode == Rcode.SERVFAIL for r in healthy)

    def test_lossy_flapping_scan_completes_with_record_per_domain(self):
        wild = build_wild()
        wild.fabric.install_chaos(
            ChaosPolicy(
                seed=CHAOS_SEED,
                impairments=[Impairment(loss_rate=0.2)],
                flaps=[
                    LinkFlap(period=120.0, up_fraction=0.5, target=tld_server_address(0))
                ],
            )
        )
        result = WildScanner(wild).scan()
        assert {r.name for r in result.records} == {
            d.name for d in wild.population.domains
        }

    def test_progress_fires_across_both_phases(self):
        wild = build_wild()
        calls: list[tuple[int, int]] = []
        WildScanner(wild).scan(
            progress=lambda done, total: calls.append((done, total)),
            progress_every=1,
        )
        total = len(wild.population.domains)
        # One call per completed domain — including the two-phase
        # stale/cached-error tail — plus the final unconditional call.
        assert [done for done, _ in calls[:-1]] == list(range(1, total + 1))
        assert calls[-1] == (total, total)


class TestScanResume:
    def test_killed_scan_resumes_to_full_name_set(self, tmp_path):
        class Killed(Exception):
            pass

        def kill_at_60(done: int, total: int) -> None:
            if done >= 60:
                raise Killed

        wild = build_wild()
        all_names = {d.name for d in wild.population.domains}
        checkpoint = tmp_path / "scan.ndjson"

        with pytest.raises(Killed):
            WildScanner(wild).scan(
                progress=kill_at_60, checkpoint=checkpoint, progress_every=20
            )
        partial = scanned_names(checkpoint)
        assert 0 < len(partial) < len(all_names)

        # Fresh scanner = fresh process; only the checkpoint survives.
        resumed = WildScanner(wild).resume_from(checkpoint)
        assert {r.name for r in resumed.records} == all_names
        assert len(resumed.records) == len(all_names)  # no duplicates
        assert scanned_names(checkpoint) == all_names

    def test_resume_of_finished_scan_adds_nothing(self, tmp_path):
        wild = build_wild()
        checkpoint = tmp_path / "scan.ndjson"
        scanner = WildScanner(wild)
        first = scanner.scan(checkpoint=checkpoint)
        resumed = WildScanner(wild).resume_from(checkpoint)
        assert len(resumed.records) == len(first.records)
        assert resumed.queries_sent == 0
