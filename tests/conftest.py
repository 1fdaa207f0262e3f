"""Shared fixtures.

The testbed (63 signed zones, 1024-bit RSA) and the full 63x7 matrix
take ~10s each to produce, so they are built once per session; tests
must treat them as read-only.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import pytest

from repro.net.clock import SimulatedClock
from repro.net.fabric import NetworkFabric
from repro.scan.population import PopulationConfig, generate_population
from repro.scan.scanner import WildScanner
from repro.scan.wild import WildInternet
from repro.testbed.infra import Testbed, build_testbed
from repro.testbed.runner import MatrixResult, run_matrix

from .sanitizer import determinism_sanitizer


@pytest.fixture(scope="session")
def testbed() -> Testbed:
    return build_testbed()


@pytest.fixture(scope="session")
def matrix(testbed: Testbed) -> MatrixResult:
    return run_matrix(testbed)


@pytest.fixture(scope="session")
def small_population():
    config = PopulationConfig(scale=200_000, rare_threshold=10, seed=99)
    return generate_population(config)


@pytest.fixture(scope="session")
def small_wild(small_population):
    return WildInternet(small_population)


@pytest.fixture(scope="session")
def small_scan(small_wild):
    scanner = WildScanner(small_wild)
    return scanner.scan()


@pytest.fixture(scope="session")
def sanitizer_if_requested():
    """Context-manager factory: the runtime determinism sanitizer when
    ``REPRO_SANITIZER=1``, a no-op otherwise.  Session-scoped so
    hypothesis tests can take it and arm *inside* each example (the
    hypothesis engine itself reads the wall clock between examples)."""
    if os.environ.get("REPRO_SANITIZER"):
        return determinism_sanitizer
    return nullcontext


@pytest.fixture(autouse=True)
def _chaos_determinism_sanitizer(request, sanitizer_if_requested):
    """With ``REPRO_SANITIZER=1``, run every chaos test with the runtime
    determinism sanitizer armed: any wall-clock or global-RNG access on
    the fabric path raises instead of silently breaking replay.  CI runs
    the chaos suite once this way (session-scoped fixtures like the
    testbed are built before this function-scoped guard arms)."""
    if request.node.get_closest_marker("chaos"):
        with sanitizer_if_requested():
            yield
    else:
        yield


@pytest.fixture()
def clock() -> SimulatedClock:
    return SimulatedClock()


@pytest.fixture()
def fabric(clock: SimulatedClock) -> NetworkFabric:
    return NetworkFabric(clock=clock)
