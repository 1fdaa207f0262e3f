"""Paved-vs-byte differential gate: Messages crossing the in-process
fabric must be byte-invisible.

Every plain-UDP send from the engine, the forwarder and the stub is
paved: the server gets the parsed query, the sender takes the server's
response ``Message`` back whenever ``parse_equivalent`` proves a parse would be the identity — and
neither wire is rendered unless something reads its bytes.
``src/`` has no switch for that, so the byte-path arm is produced by a
*test-only* fabric that never forwards ``message=``
(:class:`tests.fabric_arms.PlainFabric`).  The claim gated here is that
the two arms agree on *everything observable*: every per-domain scan
record, the Figure 1/2 aggregates and fabric datagram/byte counters at
1/8/32 workers under both retry-jitter seeds, all 63×7 matrix cells
through 1 and 2 resolver shards, and a stub's answers through a
forwarder and a resolver.  Every run has the runtime determinism
sanitizer armed.  The
gate is non-vacuous both ways: the paved arm must show hand-backs, the
plain arm none, and the directed fallback worlds must show
``paved_reply`` refusals.  :class:`tests.fabric_arms.CountingFabric`
renders every wire it carries and holds it to the length the fabric
counted.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.dns.name import Name
from repro.dns.rdata import A, NS, TXT
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.chaos import ChaosPolicy
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.iterative import EngineConfig, IterativeEngine
from repro.resolver.profiles import CLOUDFLARE
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.stub import StubResolver
from repro.scan.figures import figure1_series, figure2_series, series_to_csv
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import ScanResult, WildScanner, categorization_of
from repro.scan.wild import WildInternet
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.infra import build_testbed
from repro.testbed.runner import run_matrix
from repro.zones.builder import ZoneBuilder
from repro.zones.mutations import ZoneMutation

from .fabric_arms import (
    CountingFabric,
    PlainFabric,
    count_handback_verdicts,
    served_state,
)

#: Same retry-jitter pair as the cluster differential and serving gates.
JITTER_SEEDS = (1, 20230524)
SHARD_COUNTS = (1, 2)
WORKER_COUNTS = (1, 8, 32)


@pytest.fixture(scope="module")
def population():
    return generate_population(population_config_for(1000))


def figures_csv(result, population) -> str:
    gtld, cctld = figure1_series(result, population)
    return series_to_csv(gtld, cctld, figure2_series(result))


class Arm(NamedTuple):
    wild: WildInternet
    #: ``served_state`` of the universe before its first query.
    before: dict
    result: ScanResult


def sequential_arm(population, fabric) -> Arm:
    """Default sequential scan of a fresh universe on ``fabric``."""
    wild = WildInternet(population, fabric=fabric)
    before = served_state(wild.fabric)
    with determinism_sanitizer():
        result = WildScanner(wild).scan(use_lanes=False)
    return Arm(wild, before, result)


@pytest.fixture(scope="module")
def plain_arm(population):
    """The byte-path sequential scan every other run is compared to."""
    return sequential_arm(population, PlainFabric())


@pytest.fixture(scope="module")
def paved_arm(population):
    """The same scan as shipped: paved, sequential, nothing optional."""
    return sequential_arm(population, CountingFabric())


@pytest.fixture(scope="module")
def baseline(plain_arm):
    return plain_arm.result


def scan_paved(population, *, workers: int, jitter_seed: int):
    """Fresh default universe on the paved fabric at ``workers`` lanes."""
    wild = WildInternet(population, fabric=CountingFabric())
    scanner = WildScanner(wild, engine_config=EngineConfig(rng_seed=jitter_seed))
    with determinism_sanitizer():
        result = scanner.scan(workers=workers, use_lanes=workers > 1)
    return wild, result


class TestScanDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("jitter_seed", JITTER_SEEDS)
    def test_records_identical_paved_vs_plain(
        self, population, baseline, workers, jitter_seed
    ):
        wild, result = scan_paved(
            population, workers=workers, jitter_seed=jitter_seed
        )
        assert categorization_of(result) == categorization_of(baseline)
        assert figures_csv(result, population) == figures_csv(baseline, population)
        assert wild.fabric.handbacks > 0

    def test_aggregates_identical(self, population, baseline, paved_arm):
        """Figure 1/2 series and the EDE group histogram, not just the
        raw records."""
        result = paved_arm.result
        assert result.by_code() == baseline.by_code()
        assert figures_csv(result, population) == figures_csv(baseline, population)

    def test_fabric_counters_identical(self, plain_arm, paved_arm):
        """Datagrams, bytes, timeouts: the "network" saw the same
        traffic whichever form crossed it, and took as long over it —
        and not vacuously: only the paved arm ever took a Message back."""
        assert paved_arm.wild.fabric.stats == plain_arm.wild.fabric.stats
        assert paved_arm.wild.fabric.handbacks > 0
        assert plain_arm.wild.fabric.handbacks == 0
        assert plain_arm.wild.fabric.offered == 0
        assert paved_arm.result.duration_virtual == plain_arm.result.duration_virtual


class TestHandOffOwnership:
    """Neither side of the fabric writes to what the other handed it:
    the servers' zones and answer memos come out of a paved scan exactly
    as they come out of a byte-path scan (where nothing is shared by
    construction), and every handed-back response still encodes to the
    wire it stood in for.  The engine's query is checked after every
    send by :class:`CountingFabric` itself."""

    def test_served_state_equals_the_byte_path_arms(self, plain_arm, paved_arm):
        before = paved_arm.before
        after = served_state(paved_arm.wild.fabric)
        assert before == plain_arm.before
        # Every zone and memo that existed before the first query is
        # untouched; what was built lazily since (and the query-driven
        # sets) matches the unshared arm.
        data = [key for key in before if " set " not in key]
        assert {key: after[key] for key in data} == {key: before[key] for key in data}
        assert len(after) > len(before)
        assert after == served_state(plain_arm.wild.fabric)

    def test_handed_back_responses_were_not_written_to(self, paved_arm):
        fabric = paved_arm.wild.fabric
        assert fabric.handed_back
        assert fabric.mutated_handbacks() == 0


class TestMatrixDifferential:
    @pytest.fixture(scope="class")
    def paved_testbed(self):
        return build_testbed(fabric=CountingFabric())

    @pytest.fixture(scope="class")
    def plain_testbed(self):
        return build_testbed(fabric=PlainFabric())

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_table4_matrix_identical(
        self, matrix, paved_testbed, plain_testbed, shards
    ):
        """All 63×7 cells byte-identical, byte path vs paved (at this
        shard count, and the session's 1-shard golden ``matrix``) — and
        the zones served are left untouched."""
        before = served_state(paved_testbed.fabric)
        with determinism_sanitizer():
            paved = run_matrix(paved_testbed, shards=shards)
            plain = run_matrix(plain_testbed, shards=shards)
        assert paved.agreement_with_paper() == 1.0
        assert set(paved.cells) == set(matrix.cells) == set(plain.cells)
        for key, cell in plain.cells.items():
            want = (cell.rcode, cell.ede_codes, cell.extra_texts)
            for arm, result in (("golden", matrix), ("paved", paved)):
                got = result.cells[key]
                assert (got.rcode, got.ede_codes, got.extra_texts) == want, (
                    f"cell {key} diverged from the byte path on the {arm} arm "
                    f"({shards} shard(s))"
                )
        assert paved_testbed.fabric.handbacks > 0
        assert plain_testbed.fabric.handbacks == 0
        assert paved_testbed.fabric.mutated_handbacks() == 0
        assert served_state(paved_testbed.fabric) == before
        assert before == served_state(plain_testbed.fabric)


RESOLVER_IP, FORWARDER_IP = "192.0.9.53", "192.0.9.54"


def chain_arm(population, fabric) -> list:
    """A stub asking every fifth domain through a forwarder in front of
    a recursive resolver, on a fresh universe on ``fabric``."""
    wild = WildInternet(population, fabric=fabric)
    fabric.register(RESOLVER_IP, RecursiveResolver(
        fabric=fabric, profile=CLOUDFLARE, root_hints=wild.root_hints,
        trust_anchors=wild.trust_anchors,
    ))
    fabric.register(FORWARDER_IP, ForwardingResolver(
        fabric=fabric, upstreams=[RESOLVER_IP], annotate_forwarded=True,
    ))
    stub = StubResolver(fabric, FORWARDER_IP)
    with determinism_sanitizer():
        return [
            stub.query(domain.fqdn, want_dnssec=True)
            for domain in population.domains[::5]
        ]


class TestChainDifferential:
    def test_stub_forwarder_resolver_chain_identical(self, population):
        """Every hop a client's query takes — stub to forwarder to
        resolver to authorities — sends paved, and the client sees what
        the byte path gives it, EDE and EXTRA-TEXT included."""
        paved, plain = CountingFabric(), PlainFabric()
        answers = chain_arm(population, paved)
        assert answers == chain_arm(population, plain)
        assert any(answer.ede for answer in answers)
        assert paved.stats == plain.stats
        assert plain.offered == 0 and plain.handbacks == 0
        # Resolver-side replies (RA set), not only authorities', came
        # back unparsed, and nobody wrote to what they were handed.
        assert paved.handbacks > 0
        assert any(parsed.ra for parsed, _wire in paved.handed_back)
        assert paved.mutated_handbacks() == 0


# ---------------------------------------------------------------------------
# the four fallbacks, engine-level
# ---------------------------------------------------------------------------

ZONE = Name.from_text("big.test.")
SERVER_IP = "192.0.9.10"


def fallback_world(fabric, *, report_agent=None):
    """One authority whose TXT RRset cannot fit in 512 octets."""
    builder = ZoneBuilder(
        ZONE, now=int(fabric.clock.now()),
        mutation=ZoneMutation(algorithm=13, signed=False),
    )
    ns = Name.from_text("ns1", origin=ZONE)
    builder.add(RRset.of(ZONE, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address=SERVER_IP)))
    builder.add(RRset.of(
        ZONE, RdataType.TXT,
        *[TXT(strings=(bytes([65 + i]) * 200,)) for i in range(6)],
    ))
    builder.ensure_soa()
    server = AuthoritativeServer("ns1.big.test", report_agent=report_agent)
    server.add_zone(builder.build().zone)
    fabric.register(SERVER_IP, server)
    return fabric


def resolve_on(fabric, rdtype, payload):
    engine = IterativeEngine(fabric, [SERVER_IP], EngineConfig(payload=payload))
    events = []
    result = engine.resolve(ZONE, rdtype, events)
    answer = [rrset.to_text() for rrset in result.answer]
    return engine, (result.ok, answer, [str(event) for event in events])


class TestFallbacksTakeTheBytePath:
    """Where an observable property demands bytes, bytes it is — and the
    outcome is what the never-paving arm gets."""

    def test_truncation_refuses_then_tcp_is_bytes(self, monkeypatch):
        verdicts = count_handback_verdicts(monkeypatch)
        paved = fallback_world(CountingFabric())
        _engine, got = resolve_on(paved, RdataType.TXT, payload=512)
        assert verdicts[False] == 1  # the TC=1 UDP response
        assert paved.stats.tcp_queries == 1
        assert paved.handbacks == 0  # refused over UDP, never offered on TCP
        plain = fallback_world(PlainFabric())
        _engine, want = resolve_on(plain, RdataType.TXT, payload=512)
        assert got == want and got[0]
        assert paved.stats == plain.stats

    def test_edns_option_refuses(self, monkeypatch):
        verdicts = count_handback_verdicts(monkeypatch)
        agent = Name.from_text("agent.test.")
        paved = fallback_world(CountingFabric(), report_agent=agent)
        engine, got = resolve_on(paved, RdataType.NS, payload=1232)
        assert verdicts[False] >= 1 and paved.handbacks == 0
        # The option was still read — off the wire.
        assert agent in engine.report_channels.values()
        plain = fallback_world(PlainFabric(), report_agent=agent)
        plain_engine, want = resolve_on(plain, RdataType.NS, payload=1232)
        assert got == want and got[0]
        assert plain_engine.report_channels == engine.report_channels
        assert paved.stats == plain.stats

    def test_chaos_policy_installed_means_bytes(self):
        paved = fallback_world(CountingFabric())
        _engine, want = resolve_on(paved, RdataType.NS, payload=1232)
        assert paved.handbacks == 1
        chaotic = fallback_world(CountingFabric(chaos=ChaosPolicy(seed=1)))
        _engine, got = resolve_on(chaotic, RdataType.NS, payload=1232)
        assert chaotic.offered == 1 and chaotic.handbacks == 0
        assert got == want
