"""Differential: concurrent scans must reproduce the sequential scan.

The paper's result is a categorization of 303M domains; our concurrent
engine is only admissible if the worker count is *invisible* in the
output.  These tests drive the same seeded ~1000-domain population
through the sequential loop and through lane pools of 1, 8 and 32
workers and require byte-identical per-domain EDE categorization plus
identical Figure 1/2 group counts.

The same four scans are the repository's virtual-time ladder, pinned
here exactly: a *model of concurrency* (simulated makespans on the
virtual clock), not a speed — wall-clock throughput lives in ``perf/``.
"""

import pytest

from repro.scan.analysis import pipeline_accuracy, tld_ratios, tranco_overlap
from repro.scan.population import generate_population, population_config_for
from repro.scan.scanner import WildScanner, categorization_of
from repro.scan.wild import WildInternet

#: lanes -> (speed-up over the sequential scan's active virtual seconds,
#: datagrams sent) at 1 000 domains, seed 20230524; the sequential scan
#: itself reads 17.9 domains per virtual second over 4 708 datagrams.
LADDER = {1: (1.0, 4708), 8: (5.84, 4711), 32: (9.89, 4718)}
WORKER_COUNTS = tuple(LADDER)


@pytest.fixture(scope="module")
def thousand_population():
    return generate_population(population_config_for(1000, seed=20230524))


@pytest.fixture(scope="module")
def sequential(thousand_population, sanitizer_if_requested):
    scanner = WildScanner(WildInternet(thousand_population))
    with sanitizer_if_requested():
        return scanner.scan(workers=1, use_lanes=False)


@pytest.fixture(scope="module", params=WORKER_COUNTS, ids=lambda n: f"{n}w")
def concurrent(request, thousand_population, sanitizer_if_requested):
    scanner = WildScanner(WildInternet(thousand_population))
    with sanitizer_if_requested():
        return scanner.scan(workers=request.param, use_lanes=True)


def test_concurrent_categorization_byte_identical(sequential, concurrent):
    assert categorization_of(concurrent) == categorization_of(sequential)


def test_concurrent_figure1_group_counts(
    sequential, concurrent, thousand_population
):
    seq = tld_ratios(sequential, thousand_population)
    conc = tld_ratios(concurrent, thousand_population)
    assert conc.gtld_ratios == seq.gtld_ratios
    assert conc.cctld_ratios == seq.cctld_ratios


def test_concurrent_figure2_group_counts(sequential, concurrent):
    seq = tranco_overlap(sequential)
    conc = tranco_overlap(concurrent)
    assert conc.tranco_size == seq.tranco_size
    assert conc.overlap == seq.overlap
    assert conc.noerror_overlap == seq.noerror_overlap
    assert sorted(conc.ranks) == sorted(seq.ranks)


def test_concurrent_by_code_counts(sequential, concurrent):
    assert concurrent.by_code() == sequential.by_code()


def test_concurrent_accuracy_stays_perfect(concurrent):
    accuracy, wrong = pipeline_accuracy(concurrent)
    assert accuracy == 1.0, [record.name for record in wrong[:5]]


def test_concurrent_repeat_run_identical(thousand_population):
    """Same seed + same worker count => identical records *in order*."""

    def run():
        scanner = WildScanner(WildInternet(thousand_population))
        result = scanner.scan(workers=8)
        return [
            (r.name, r.rcode, r.ede_codes, r.extra_texts, r.error)
            for r in result.records
        ]

    assert run() == run()


def test_concurrent_makespan_beats_sequential(sequential, concurrent):
    """More lanes must never be slower in virtual time (pool overhead is
    wall-clock only), and real concurrency must win outright."""
    assert concurrent.active_virtual <= sequential.active_virtual + 1e-6
    if concurrent.workers >= 8:
        assert concurrent.active_virtual < sequential.active_virtual / 2
        assert concurrent.coalesced > 0


def test_virtual_time_ladder_is_exact(sequential, concurrent):
    speedup, datagrams = LADDER[concurrent.workers]
    assert round(sequential.active_virtual / concurrent.active_virtual, 2) == speedup
    assert concurrent.queries_sent == datagrams
    assert sequential.queries_sent == 4708
    assert round(len(sequential.records) / sequential.active_virtual, 1) == 17.9
