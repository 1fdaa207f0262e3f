"""Differential tests: observability on vs. null sink — identical results.

The central guarantee of ``repro.obs`` is that it is *off-path*:
recording metrics and traces reads the virtual clock but never
advances it, never consumes randomness, and never touches the wire.
These tests prove it differentially:

* a 1k-domain wild scan with a fully-enabled Observability (live
  registry + collecting sink) produces byte-identical per-domain
  categorization, identical Figure 1/2 aggregates, and the same
  virtual makespan as the null-sink seed run;
* the 63x7 testbed matrix (Table 4) is cell-for-cell identical with
  observability enabled.

Any new instrumentation that advances the clock, draws randomness, or
perturbs resolution order breaks these instantly.
"""

import json

import pytest

from repro.obs import CollectingSink, Observability
from repro.scan.analysis import tld_ratios, tranco_overlap
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner
from repro.scan.wild import WildInternet
from repro.testbed.runner import run_matrix


@pytest.fixture(scope="module")
def thousand_population():
    return generate_population(population_config_for(1000, seed=20230524))


@pytest.fixture(scope="module")
def null_sink_scan(thousand_population):
    scanner = WildScanner(WildInternet(thousand_population))
    return scanner.scan(workers=1, use_lanes=False)


@pytest.fixture(scope="module")
def observed_scan(thousand_population):
    wild = WildInternet(thousand_population)
    obs = Observability(clock=wild.fabric.clock, sink=CollectingSink())
    scanner = WildScanner(wild, obs=obs)
    return scanner.scan(workers=1, use_lanes=False)


def _categorization_bytes(result) -> bytes:
    """Canonical per-domain serialization, independent of record order."""
    rows = sorted(
        (
            record.name,
            int(record.rcode),
            list(record.ede_codes),
            list(record.extra_texts),
            record.error,
        )
        for record in result.records
    )
    return json.dumps(rows, sort_keys=True).encode()


def test_observed_scan_categorization_byte_identical(null_sink_scan, observed_scan):
    assert _categorization_bytes(observed_scan) == _categorization_bytes(null_sink_scan)


def test_observed_scan_same_virtual_timing(null_sink_scan, observed_scan):
    """Observability must not advance the clock or add upstream queries."""
    assert observed_scan.duration_virtual == null_sink_scan.duration_virtual
    assert observed_scan.queries_sent == null_sink_scan.queries_sent


def test_observed_scan_figure1_aggregates(
    null_sink_scan, observed_scan, thousand_population
):
    seq = tld_ratios(null_sink_scan, thousand_population)
    obs = tld_ratios(observed_scan, thousand_population)
    assert obs.gtld_ratios == seq.gtld_ratios
    assert obs.cctld_ratios == seq.cctld_ratios


def test_observed_scan_figure2_aggregates(null_sink_scan, observed_scan):
    seq = tranco_overlap(null_sink_scan)
    obs = tranco_overlap(observed_scan)
    assert obs.tranco_size == seq.tranco_size
    assert obs.overlap == seq.overlap
    assert obs.noerror_overlap == seq.noerror_overlap
    assert obs.ranks == seq.ranks


def test_observed_scan_carries_metrics_snapshot(observed_scan, null_sink_scan):
    """The observed run reports metrics; the null-sink run reports none."""
    assert null_sink_scan.metrics is None
    snapshot = observed_scan.metrics
    assert snapshot is not None and snapshot["format"] == "repro-metrics/v1"
    by_name = {family["name"]: family for family in snapshot["metrics"]}
    records = by_name["repro_scan_records_total"]
    emitted = sum(series["value"] for series in records["series"])
    assert emitted == len(observed_scan.records)
    queries = by_name["repro_resolver_queries_total"]
    assert sum(series["value"] for series in queries["series"]) > 0


def test_observed_matrix_cell_identical(testbed, matrix):
    """Table 4 with observability enabled matches the session matrix."""
    sink = CollectingSink()
    obs = Observability(clock=testbed.fabric.clock, sink=sink)
    observed = run_matrix(testbed, obs=obs)
    assert set(observed.cells) == set(matrix.cells)
    for key, cell in matrix.cells.items():
        got = observed.cells[key]
        assert (got.rcode, got.ede_codes, got.extra_texts) == (
            cell.rcode, cell.ede_codes, cell.extra_texts
        ), key
    assert len(sink.traces) == 441
