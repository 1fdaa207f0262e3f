"""The sustained-load client simulator (repro.load).

Unit coverage for the seeded building blocks (client population, Zipf
mix, on/off arrivals, phase reports) plus the load-bearing end-to-end
property: every scenario replayed under two retry-jitter seeds produces
byte-identical phase reports — upstream randomness must never leak into
client-visible behaviour — and meets its degradation contract, through
the same ``contract_rows`` the ``serve --drill`` door prints.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random

import pytest

from repro.load import (
    SCENARIO_ORDER,
    SCENARIOS,
    LoadConfig,
    LoadEngine,
    OnOffProcess,
    ZipfMix,
    build_clients,
    client_arrivals,
    contract_rows,
    percentile,
    render_phase_table,
)
from repro.load.report import build_phase_report
from repro.resolver.resilience import SHED_REASONS, FrontendStats

#: Smallest world that still has a viable hot set and every phase kind.
TINY = dict(target_domains=200, scale=0.1, workers=2)
#: The retry-jitter seeds the determinism gate compares.
JITTER_SEEDS = (1, 20230524)


class TestClients:
    def test_population_is_deterministic(self):
        assert build_clients(32, 7) == build_clients(32, 7)
        assert build_clients(32, 7) != build_clients(32, 8)

    def test_addresses_unique_and_benchmarkable(self):
        clients = build_clients(300, 1)
        addresses = {c.address for c in clients}
        assert len(addresses) == 300
        assert all(a.startswith("198.18.") for a in addresses)

    def test_every_deadline_clears_the_resolver_budget(self):
        # The engine's no-deadline-violations contract relies on this.
        budget = LoadConfig().client_deadline
        for client in build_clients(64, 20230515):
            assert client.klass.deadline > budget


class TestZipfMix:
    def test_heavy_tail_prefers_top_ranks(self):
        names = [f"d{i}." for i in range(100)]
        rng = random.Random(1)
        mix = ZipfMix(names, s=1.0)
        draws = [mix.sample(rng) for _ in range(2000)]
        top10 = sum(1 for d in draws if int(d[1:-1]) < 10)
        assert top10 / len(draws) > 0.4  # H(10)/H(100) ~ 0.56

    def test_hot_weight_concentrates(self):
        names = [f"d{i}." for i in range(100)]
        mix = ZipfMix(names, s=1.0, hot=("hot.",), hot_weight=0.9)
        rng = random.Random(2)
        draws = [mix.sample(rng) for _ in range(1000)]
        assert draws.count("hot.") / len(draws) > 0.8

    def test_sampling_is_seed_deterministic(self):
        names = [f"d{i}." for i in range(50)]
        mix = ZipfMix(names, s=1.1, hot=("h.",), hot_weight=0.2)
        a = [mix.sample(random.Random(9)) for _ in range(100)]
        b = [mix.sample(random.Random(9)) for _ in range(100)]
        assert a == b


class TestArrivals:
    def test_bounds_and_determinism(self):
        process = OnOffProcess(rate=20.0, mean_on=2.0, mean_off=3.0)
        a = client_arrivals(process, 100.0, 30.0, random.Random(4))
        b = client_arrivals(process, 100.0, 30.0, random.Random(4))
        assert a == b
        assert a == sorted(a)
        assert all(100.0 <= t < 130.0 for t in a)

    def test_pure_poisson_rate(self):
        process = OnOffProcess(rate=10.0, mean_off=0.0)
        times = client_arrivals(process, 0.0, 200.0, random.Random(5))
        assert times and 8.0 < len(times) / 200.0 < 12.0

    def test_off_heavy_process_is_bursty(self):
        process = OnOffProcess(rate=50.0, mean_on=1.0, mean_off=9.0)
        times = client_arrivals(process, 0.0, 100.0, random.Random(6))
        # Duty cycle 0.1: far fewer arrivals than an always-on stream.
        assert 0 < len(times) < 50.0 * 100.0 * 0.3

    def test_scaled_keeps_burst_shape(self):
        process = OnOffProcess(rate=8.0, mean_on=2.0, mean_off=6.0)
        doubled = process.scaled(2.0)
        assert doubled.rate == 16.0
        assert doubled.duty_cycle == process.duty_cycle


class TestReportPrimitives:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([], 0.99) == 0.0

    def test_phase_report_fractions_and_rendering(self):
        row = build_phase_report(
            scenario="steady",
            phase="steady",
            latencies=[0.01, 0.02, 0.03, 0.04],
            queue_waits=[0.0, 0.0, 0.1, 0.1],
            classified={"fresh": 2, "stale": 1, "refused": 1},
            deadline_violations=0,
            delta={
                ("repro_frontend_shed_total", (("reason", "rrl"),)): 1.0,
                ("repro_resolver_ede_total", (("code", "3"),)): 1.0,
            },
        )
        assert row["fractions"]["answered"] == 0.75
        assert row["fractions"]["shed"] == 0.25
        assert row["ede_mix"] == {"3": 1}
        table = render_phase_table(
            [{"scenario": "steady", "title": "t", "phases": [row]}]
        )
        assert "steady" in table and "75.0%" in table

    def test_frontend_stats_labeled_sheds(self):
        stats = FrontendStats()
        stats.shed("rrl")
        stats.shed("rrl")
        stats.shed("garbage")
        with pytest.raises(ValueError):
            stats.shed("mystery")
        snapshot = stats.snapshot()
        assert snapshot["shed_by_reason"] == {
            "rrl": 2, "inflight-cap": 0, "garbage": 1,
        }
        assert set(snapshot["shed_by_reason"]) == set(SHED_REASONS)


class TestScenarioCatalog:
    def test_five_scenarios_in_paper_order(self):
        assert SCENARIO_ORDER == (
            "steady", "flash", "stampede", "outage", "overload"
        )
        # The suite runs single-resolver; extra scenarios (the cluster
        # drills) live outside the order but inside the catalog.
        assert set(SCENARIO_ORDER) <= set(SCENARIOS)
        assert set(SCENARIOS) - set(SCENARIO_ORDER) == {"shard-outage"}

    def test_every_scenario_reports_at_least_one_phase(self):
        for spec in SCENARIOS.values():
            assert any(phase.report for phase in spec.phases)

    def test_scenario_indices_are_stable(self):
        from repro.load.scenarios import SCENARIO_INDEX

        for position, name in enumerate(SCENARIO_ORDER):
            assert SCENARIO_INDEX[name] == position
        # Extras follow the suite in sorted order, so adding one drill
        # never renumbers another's seeded schedule.
        assert SCENARIO_INDEX["shard-outage"] == len(SCENARIO_ORDER)


@pytest.fixture(scope="module")
def replay(sanitizer_if_requested):
    """``replay(name)``: one scenario at ``TINY`` scale, once per jitter
    seed, over one shared population."""
    population = LoadEngine(LoadConfig(**TINY)).population

    def run(name: str) -> list[dict]:
        with sanitizer_if_requested():
            return [
                LoadEngine(
                    LoadConfig(**TINY, jitter_seed=seed), population=population
                ).run_scenario(name)
                for seed in JITTER_SEEDS
            ]

    return run


class JitterSeededSchedule(LoadEngine):
    """A test-only arm with the leak the gates exist for: its schedule
    seed is derived from the jitter seed."""

    def __init__(self, config: LoadConfig, population=None):
        leaked = config.schedule_seed * 1_000_003 + config.jitter_seed
        super().__init__(dataclasses.replace(config, schedule_seed=leaked), population)


def schedule_of(engine: LoadEngine) -> list[tuple]:
    """What a client sees of one phase's schedule: (at, address, wire)."""
    phase = SCENARIOS["steady"].phases[0]
    events = engine._build_events(phase, 0, 0, 0.0, ZipfMix(["x."]))
    return [(e.at, e.client.address, e.wire) for e in events]


def assert_deterministic_and_in_contract(runs: list[dict]) -> None:
    """The determinism gate — phase reports byte-identical across jitter
    seeds — and the degradation contract, through the door's own rows."""
    # A gate that compared nothing is a failing gate.
    assert len(runs) >= 2
    assert sum(phase["queries"] for phase in runs[0]["phases"]) > 0
    reference = json.dumps(runs[0], sort_keys=True)
    assert all(json.dumps(run, sort_keys=True) == reference for run in runs[1:])
    rows = contract_rows(runs[0]["phases"])
    assert rows and all(row["ok"] for row in rows), rows


class TestEngineEndToEnd:
    @pytest.fixture(scope="class")
    def engine(self):
        return LoadEngine(LoadConfig(**TINY))

    def test_schedule_is_jitter_seed_independent(self, engine):
        other = LoadEngine(
            LoadConfig(**TINY, jitter_seed=999), population=engine.population
        )
        assert schedule_of(engine) == schedule_of(other)

    def test_a_jitter_seeded_schedule_fails_both_gates(self, engine, sanitizer_if_requested):
        """The load gates are the one mechanism for seed-domain
        separation: an engine that derives its schedule seed from the
        jitter seed fails the schedule comparison and the phase-report
        byte comparison.  Every client-visible sink — query IDs,
        arrivals, the mix's draws, the events, the phase report — lands
        in one of the two."""
        leaky = [
            JitterSeededSchedule(
                LoadConfig(**TINY, jitter_seed=seed), population=engine.population
            )
            for seed in JITTER_SEEDS
        ]
        assert schedule_of(leaky[0]) != schedule_of(leaky[1])
        with sanitizer_if_requested():
            runs = [arm.run_scenario("steady") for arm in leaky]
        with pytest.raises(AssertionError):
            assert_deterministic_and_in_contract(runs)
        # It is the byte comparison that fails.
        assert json.dumps(runs[0], sort_keys=True) != json.dumps(runs[1], sort_keys=True)

    def test_outage_scenario_identical_across_jitter_seeds(self, replay):
        """The scenario most exposed to retry jitter (timeouts + chaos RNG)."""
        assert_deterministic_and_in_contract(replay("outage"))

    @pytest.mark.parametrize(
        "name", sorted(set(SCENARIOS) - {"outage", "shard-outage"})
    )
    def test_every_other_scenario_identical_across_jitter_seeds(self, replay, name):
        """Whatever ``SCENARIOS`` holds beside the two named tests."""
        assert_deterministic_and_in_contract(replay(name))

    def test_drill_cli_smoke(self, capsys):
        from repro.tools.serve import main

        code = main([
            "--drill", "steady",
            "--drill-scale", "0.1",
            "--drill-domains", "200",
            "--drill-workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "steady" in out and "answered" in out

    def test_drill_cli_rejects_unknown_scenario(self, capsys):
        from repro.tools.serve import main

        assert main(["--drill", "nope"]) == 2


class TestShardOutageDrill:
    """The failover drill through the load engine, its contract rows,
    and the drill door's verdict."""

    @pytest.fixture(scope="class")
    def shard_outage_runs(self, replay):
        return replay("shard-outage")

    @pytest.fixture()
    def shard_outage(self, shard_outage_runs):
        return shard_outage_runs[0]

    def test_shard_outage_scenario_identical_across_jitter_seeds(self, shard_outage_runs):
        assert_deterministic_and_in_contract(shard_outage_runs)

    def test_doctored_report_fails_its_row_and_the_door(
        self, shard_outage, monkeypatch, capsys
    ):
        from repro.tools.serve import main

        doctored = copy.deepcopy(shard_outage)
        crash, recovery = doctored["phases"][-2:]
        crash["answered_fraction"] = 0.98  # below the 99% floor
        recovery["datagrams_while_ejected"] = 1
        verdict = {row["check"]: row["ok"] for row in contract_rows(doctored["phases"])}
        assert verdict == {
            "failover-answered": False,
            "failover-ejection": True,
            "failover-blackhole": False,
            "failover-rejoin": True,
            "failover-routing-restored": True,
            "no-deadline-violations": True,
        }
        monkeypatch.setattr(LoadEngine, "run_scenario", lambda self, name: doctored)
        assert main(["--drill", "shard-outage", "--drill-domains", "200"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] failover-answered" in out and "[FAIL] failover-blackhole" in out

    def test_drill_cli_runs_shard_outage(self, capsys):
        from repro.tools.serve import main

        code = main([
            "--drill", "shard-outage",
            "--drill-scale", "0.1",
            "--drill-domains", "200",
            "--drill-workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard-crash" in out and "shard-recovery" in out
        assert "[ok] failover-routing-restored" in out
