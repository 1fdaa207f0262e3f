"""Shard-count differential gate: shard count must be invisible.

The cluster's core claim is that running the scan or the Table 4
matrix through 1, 2, or 8 resolver shards produces *byte-identical*
results — per-domain records, Figure 1/2 aggregates, EDE group counts,
every matrix cell — because registered-domain routing keeps all
per-name state shard-local and the shared L2 tier only carries
content-deterministic infrastructure records.

Every scan here runs with the runtime determinism sanitizer armed and
is repeated under two retry-jitter seeds: upstream timing randomness
must not leak into categorization any more than shard count does.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.obs import NULL_OBS, Observability
from repro.obs.registry import METRICS
from repro.resolver.iterative import EngineConfig
from repro.scan.figures import figure1_series, figure2_series
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import WildInternet
from repro.testbed.runner import run_matrix

#: The retry-jitter seeds the gate sweeps (same pair as the serving
#: benchmark's determinism gate).
JITTER_SEEDS = (1, 20230524)
SHARD_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def population():
    return generate_population(population_config_for(1000))


def scan_with(
    population, *, shards: int, jitter_seed: int, obs=None, workers: int = 8
):
    """Fresh universe + scanner; scan with the sanitizer armed."""
    wild = WildInternet(population)
    scanner = WildScanner(
        wild,
        shards=shards,
        engine_config=EngineConfig(rng_seed=jitter_seed),
        obs=obs,
    )
    with determinism_sanitizer():
        result = scanner.scan(workers=workers, use_lanes=True)
    return scanner, result


@pytest.fixture(scope="module")
def baseline(population):
    """The sequential single-resolver scan every run is compared to."""
    wild = WildInternet(population)
    scanner = WildScanner(wild)
    with determinism_sanitizer():
        result = scanner.scan(use_lanes=False)
    return result


class TestScanDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("jitter_seed", JITTER_SEEDS)
    def test_records_identical_to_sequential_baseline(
        self, population, baseline, shards, jitter_seed
    ):
        _scanner, result = scan_with(
            population, shards=shards, jitter_seed=jitter_seed
        )
        assert categorization_of(result) == categorization_of(baseline)

    def test_aggregates_identical_at_eight_shards(self, population, baseline):
        """Figure 1/2 series and EDE group counts, not just raw records."""
        _scanner, result = scan_with(population, shards=8, jitter_seed=1)
        assert result.by_code() == baseline.by_code()

        base_f1 = figure1_series(baseline, population)
        got_f1 = figure1_series(result, population)
        for base_series, got_series in zip(base_f1, got_f1):
            assert got_series.points == base_series.points
            assert got_series.label == base_series.label

        base_f2 = figure2_series(baseline)
        got_f2 = figure2_series(result)
        assert got_f2.points == base_f2.points

    def test_cluster_actually_sharded(self, population):
        """The identity above is not vacuous: all shards take traffic."""
        scanner, _result = scan_with(population, shards=8, jitter_seed=1)
        cluster = scanner.resolver
        assert len(cluster.shards) == 8
        assert all(count > 0 for count in cluster.cluster_stats.routed)
        assert cluster.l2 is not None and cluster.l2.stats.hits > 0
        assert 1.0 <= cluster.imbalance() <= 2.0


class TestMatrixDifferential:
    @pytest.mark.parametrize("shards", (2, 8))
    def test_table4_matrix_identical(self, testbed, matrix, shards):
        """All 63x7 cells byte-identical through a sharded cluster."""
        with determinism_sanitizer():
            sharded = run_matrix(testbed, shards=shards)
        assert set(sharded.cells) == set(matrix.cells)
        for key, cell in matrix.cells.items():
            got = sharded.cells[key]
            assert (got.rcode, got.ede_codes, got.extra_texts) == (
                cell.rcode,
                cell.ede_codes,
                cell.extra_texts,
            ), f"cell {key} diverged at {shards} shards"


class TestObsOffPath:
    @pytest.fixture(scope="class")
    def tiny_population(self):
        return generate_population(population_config_for(300))

    def test_observability_is_off_path_for_the_cluster(self, tiny_population):
        """obs-on vs NULL_OBS cluster scans are byte-identical."""
        _s1, silent = scan_with(
            tiny_population, shards=2, jitter_seed=1, obs=NULL_OBS
        )
        wild = WildInternet(tiny_population)
        obs = Observability(clock=wild.fabric.clock)
        scanner = WildScanner(
            wild, shards=2, engine_config=EngineConfig(rng_seed=1), obs=obs
        )
        with determinism_sanitizer():
            observed = scanner.scan(workers=8, use_lanes=True)
        assert categorization_of(observed) == categorization_of(silent)

        snapshot = obs.registry.snapshot()
        families = {family["name"]: family for family in snapshot["metrics"]}
        routed_total = sum(
            series["value"]
            for series in families["repro_cluster_routed_total"]["series"]
        )
        assert routed_total == scanner.resolver.cluster_stats.routed_total
        assert families["repro_cluster_l2_total"]["series"]
        shard_gauge = families["repro_cluster_shards"]["series"]
        assert shard_gauge and shard_gauge[0]["value"] == 2

    def test_cluster_metrics_are_registered(self):
        """The closed registry documents every repro_cluster_* name."""
        assert METRICS["repro_cluster_routed_total"].kind == "counter"
        assert METRICS["repro_cluster_routed_total"].labels == ("shard",)
        assert METRICS["repro_cluster_l2_total"].kind == "counter"
        assert METRICS["repro_cluster_imbalance_ratio"].kind == "gauge"
        assert METRICS["repro_cluster_shards"].kind == "gauge"
