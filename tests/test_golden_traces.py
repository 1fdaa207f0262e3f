"""Golden-trace snapshots: the full query trace for every testbed case.

For the BIND and Unbound profiles, every one of the 63 testbed
subdomains is resolved with observability enabled and its
:class:`~repro.obs.QueryTrace` rendered to normalized form (event
kinds + attributes, timestamps replaced by ordinals) and pinned in
``tests/data/golden_traces/{bind,unbound}.json``.  Where the Table 4
golden file pins *what* each resolver answered, these pin *how* it got
there: every upstream query, infra fetch, validation verdict, and EDE
attachment, in order.

The traces are collected under two different engine jitter seeds with
the determinism sanitizer armed — a seed shifts *when* retries happen,
never *what* happens or in which order, so the normalized snapshots
must be identical for both.

Regenerate intentionally with::

    PYTHONPATH=src python tests/test_golden_traces.py --regen
"""

import json
import pathlib

import pytest

from repro.obs import CollectingSink, Observability, normalize_trace
from repro.resolver.iterative import EngineConfig
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.profiles import get_profile
from repro.testbed.infra import build_testbed

from .sanitizer import determinism_sanitizer

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden_traces"
PROFILES = ("bind", "unbound")
#: Two distinct retry-jitter seeds; normalized traces must not differ.
SEEDS = (20230524, 99)


def collect_traces(profile_name: str, rng_seed: int) -> dict:
    """Resolve all 63 cases through one profile; normalized trace per label.

    Mirrors ``run_matrix``: one resolver, caches flushed before every
    case, so each trace starts cold and cases cannot contaminate each
    other.
    """
    testbed = build_testbed()
    sink = CollectingSink()
    obs = Observability(clock=testbed.fabric.clock, sink=sink)
    profile = get_profile(profile_name)
    resolver = RecursiveResolver(
        fabric=testbed.fabric,
        profile=profile,
        root_hints=testbed.root_hints,
        trust_anchors=testbed.trust_anchors,
        engine_config=EngineConfig(rng_seed=rng_seed),
        obs=obs,
    )
    cases: dict[str, dict] = {}
    for deployed in testbed.cases.values():
        resolver.flush_caches()
        before = len(sink.traces)
        resolver.resolve(deployed.query_name)
        assert len(sink.traces) == before + 1, deployed.case.label
        cases[deployed.case.label] = normalize_trace(sink.traces[-1])
    return cases


def _snapshot(profile_name: str, cases: dict) -> dict:
    return {
        "schema": "repro-golden-traces/v1",
        "profile": profile_name,
        "cases": dict(sorted(cases.items())),
    }


def _diff_cases(live: dict, golden: dict) -> list[str]:
    """Human-readable per-case diff lines (empty when identical)."""
    lines: list[str] = []
    for label in sorted(set(live) | set(golden)):
        if label not in golden:
            lines.append(f"{label}: not in golden file")
            continue
        if label not in live:
            lines.append(f"{label}: missing from live run")
            continue
        if live[label] == golden[label]:
            continue
        want = golden[label].get("events", [])
        got = live[label].get("events", [])
        detail = f"{len(got)} events vs {len(want)} golden"
        for index, (g, w) in enumerate(zip(got, want)):
            if g != w:
                detail += f"; first drift at event {index}: {g} != {w}"
                break
        lines.append(f"{label}: {detail}")
    return lines


@pytest.mark.parametrize("profile_name", PROFILES)
def test_traces_match_golden_file(profile_name):
    golden = json.loads(
        (GOLDEN_DIR / f"{profile_name}.json").read_text(encoding="utf-8")
    )
    with determinism_sanitizer():
        live = _snapshot(profile_name, collect_traces(profile_name, SEEDS[0]))

    assert live["schema"] == golden["schema"]
    assert len(live["cases"]) == len(golden["cases"]) == 63
    diffs = _diff_cases(live["cases"], golden["cases"])
    assert not diffs, (
        f"{len(diffs)} case trace(s) drifted from golden:\n" + "\n".join(diffs)
    )


@pytest.mark.parametrize("profile_name", PROFILES)
def test_traces_are_jitter_seed_independent(profile_name):
    """Normalized traces are identical across retry-jitter seeds."""
    with determinism_sanitizer():
        first = collect_traces(profile_name, SEEDS[0])
        second = collect_traces(profile_name, SEEDS[1])
    diffs = _diff_cases(second, first)
    assert not diffs, (
        f"jitter seed changed {len(diffs)} normalized trace(s):\n"
        + "\n".join(diffs)
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name in PROFILES:
            path = GOLDEN_DIR / f"{name}.json"
            path.write_text(
                json.dumps(
                    _snapshot(name, collect_traces(name, SEEDS[0])),
                    indent=1,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
            print(f"regenerated {path}")
