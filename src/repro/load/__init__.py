"""``repro.load`` — a seeded client-population load generator.

The resilience layer (breakers, deadline budgets, serve-stale, overload
shedding) exists because the paper's wild measurements show that real
resolvers *degrade* under stress rather than fail.  Unit tests prove the
mechanisms; this package proves the behaviour at serving intensity, the
way ZDNS-style tools prove scan throughput: by replaying a large,
seeded, virtual-clock client workload through a live
:class:`~repro.resolver.resilience.ResilientFrontend` and reporting what
the clients actually experienced.

The pieces:

* :mod:`repro.load.population` — the client population (per-client
  RTT/deadline classes) and the heavy-tailed Zipf query mix over the
  synthetic domain population's Tranco-like ranking;
* :mod:`repro.load.arrivals` — bursty per-client on/off (interrupted
  Poisson) arrival processes, seeded and replayable;
* :mod:`repro.load.scenarios` — the five phased scenarios: steady
  state, flash crowd, cache stampede, upstream outage + recovery
  (driven by the chaos fabric), and overload beyond the shed threshold,
  plus the ``shard-outage`` cluster recovery drill — and
  ``contract_rows``, the one statement of the degradation contract
  each of them must meet;
* :mod:`repro.load.engine` — the replay engine: schedules every query
  event up front, then drives them through the frontend on the
  deterministic virtual-time lane pool, so coalescing, breaker
  half-open probes, and refresh-queue draining run under genuine
  concurrency while staying byte-replayable;
* :mod:`repro.load.report` — per-phase reports (latency percentiles,
  answered/stale/refused/shed fractions, EDE mix, breaker transitions)
  sourced from the ``repro.obs`` metrics registry, plus the text
  renderer behind ``python -m repro.tools.serve --drill``, the one
  door that replays a scenario and gives a verdict.

Everything is deterministic: the *schedule* seed fixes the population,
clients, arrival times, query mix and message IDs; the *jitter* seed
feeds only the engine's retry-jitter RNG and the chaos policy.  Phase
reports must be byte-identical across jitter seeds — the serving-side
analogue of the scan's categorization-identical gate, held for every
scenario by ``tests/test_load.py``.
"""

from __future__ import annotations

from .arrivals import OnOffProcess, client_arrivals
from .engine import LoadConfig, LoadEngine
from .population import (
    DEFAULT_CLIENT_CLASSES,
    Client,
    ClientClass,
    ZipfMix,
    build_clients,
)
from .report import percentile, render_phase_table
from .scenarios import (
    SCENARIO_ORDER,
    SCENARIOS,
    PhaseSpec,
    ScenarioSpec,
    contract_rows,
)

__all__ = [
    "DEFAULT_CLIENT_CLASSES",
    "SCENARIOS",
    "SCENARIO_ORDER",
    "Client",
    "ClientClass",
    "LoadConfig",
    "LoadEngine",
    "OnOffProcess",
    "PhaseSpec",
    "ScenarioSpec",
    "ZipfMix",
    "build_clients",
    "client_arrivals",
    "contract_rows",
    "percentile",
    "render_phase_table",
]
