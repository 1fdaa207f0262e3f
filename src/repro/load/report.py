"""Phase reports: metrics-registry deltas, percentiles, rendering.

A phase report has two data sources, deliberately kept separate:

* *client-side* observations (latency samples, per-query response
  classification, deadline checks) measured by the load engine at the
  point a real client would measure them;
* *server-side* counters pulled from the shared ``repro.obs`` metrics
  registry as a delta across the phase — the same numbers an operator's
  dashboard would show, so the report exercises the observability layer
  instead of growing ad-hoc counters.

Everything emitted is a pure function of the schedule seed, so the
two-jitter-seed determinism gate (``tests/test_load.py``) can require
byte-identical phase reports.
"""

from __future__ import annotations

import math

from ..obs import MetricsRegistry

#: Flattened counter key: (family name, ((label, value), ...)).
CounterKey = tuple[str, tuple[tuple[str, str], ...]]


def counter_values(registry: MetricsRegistry) -> dict[CounterKey, float]:
    """Every counter/gauge series in ``registry``, flattened."""
    values: dict[CounterKey, float] = {}
    for family in registry.snapshot()["metrics"]:
        for series in family["series"]:
            if "value" not in series:  # histogram series carry buckets
                continue
            labels = tuple(sorted(series["labels"].items()))
            values[(family["name"], labels)] = series["value"]
    return values


def counter_delta(
    before: dict[CounterKey, float], after: dict[CounterKey, float]
) -> dict[CounterKey, float]:
    """Per-series increments across a phase (zero-delta series dropped)."""
    delta: dict[CounterKey, float] = {}
    for key, value in after.items():
        change = value - before.get(key, 0.0)
        if change:
            delta[key] = change
    return delta


def sum_by_label(
    delta: dict[CounterKey, float], family: str, label: str
) -> dict[str, int]:
    """Fold a family's delta onto one label (e.g. EDE ``code``)."""
    folded: dict[str, int] = {}
    for (name, labels), value in delta.items():
        if name != family:
            continue
        key = dict(labels).get(label, "")
        folded[key] = folded.get(key, 0) + int(value)
    return dict(sorted(folded.items()))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over ``samples`` (deterministic)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def build_phase_report(
    *,
    scenario: str,
    phase: str,
    latencies: list[float],
    queue_waits: list[float],
    classified: dict[str, int],
    deadline_violations: int,
    delta: dict[CounterKey, float],
    extras: dict | None = None,
) -> dict:
    """One phase's JSON-ready report row."""
    total = sum(classified.values())
    answered = classified.get("fresh", 0) + classified.get("stale", 0)

    def fraction(count: int) -> float:
        return round(count / total, 6) if total else 0.0

    responses = sum_by_label(delta, "repro_frontend_responses_total", "outcome")
    shed_reasons = sum_by_label(delta, "repro_frontend_shed_total", "reason")
    report = {
        "scenario": scenario,
        "phase": phase,
        "queries": total,
        "latency_virtual_s": {
            "p50": round(percentile(latencies, 0.50), 6),
            "p99": round(percentile(latencies, 0.99), 6),
            "p999": round(percentile(latencies, 0.999), 6),
        },
        "queue_wait_mean_s": round(
            sum(queue_waits) / len(queue_waits), 6
        ) if queue_waits else 0.0,
        "fractions": {
            "answered": fraction(answered),
            "stale": fraction(classified.get("stale", 0)),
            "refused": fraction(classified.get("refused", 0)),
            "shed": fraction(
                int(shed_reasons.get("rrl", 0))
                + int(shed_reasons.get("inflight-cap", 0))
            ),
            "servfail": fraction(classified.get("servfail", 0)),
        },
        "responses": responses,
        "shed_reasons": shed_reasons,
        "ede_mix": sum_by_label(delta, "repro_resolver_ede_total", "code"),
        "stale_served": sum_by_label(
            delta, "repro_resolver_stale_served_total", "kind"
        ),
        "breaker_transitions": sum_by_label(
            delta, "repro_breaker_transitions_total", "transition"
        ),
        "deadline_violations": deadline_violations,
    }
    if extras:
        report.update(extras)
    return report


def render_phase_table(scenarios: list[dict]) -> str:
    """The human view ``serve --drill`` prints."""
    header = (
        f"{'phase':<10} {'queries':>8} {'p50':>8} {'p99':>8} {'p999':>8} "
        f"{'answered':>9} {'stale':>7} {'shed':>7} {'ede mix'}"
    )
    lines = []
    for scenario in scenarios:
        lines.append(f"-- {scenario['scenario']}: {scenario['title']}")
        lines.append(header)
        for row in scenario["phases"]:
            latency = row["latency_virtual_s"]
            fractions = row["fractions"]
            ede = ",".join(
                f"{code}:{count}" for code, count in row["ede_mix"].items()
            ) or "-"
            lines.append(
                f"{row['phase']:<10} {row['queries']:>8} "
                f"{latency['p50']:>8.4f} {latency['p99']:>8.4f} "
                f"{latency['p999']:>8.4f} "
                f"{fractions['answered']:>9.1%} {fractions['stale']:>7.1%} "
                f"{fractions['shed']:>7.1%} {ede}"
            )
    return "\n".join(lines)
