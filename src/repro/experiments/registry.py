"""Experiment registry: id → harness, plus a run-everything driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .harness import (
    ScanContext,
    TestbedContext,
    experiment_figure1,
    experiment_figure2,
    experiment_section32,
    experiment_section33,
    experiment_section41,
    experiment_section42,
    experiment_section42_ns,
    experiment_table1,
    experiment_table2_3,
    experiment_table4,
)
from .report import ExperimentReport


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    title: str
    needs: str  # "" | "testbed" | "scan"
    runner: Callable[..., ExperimentReport]


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec("table1", "EDE registry (Table 1)", "", experiment_table1),
        ExperimentSpec("table2_3", "Testbed inventory (Tables 2-3)", "testbed", experiment_table2_3),
        ExperimentSpec("table4", "EDE matrix (Table 4)", "testbed", experiment_table4),
        ExperimentSpec("sec32", "Public resolver selection (Section 3.2)", "testbed", experiment_section32),
        ExperimentSpec("sec33", "Consistency statistics (Section 3.3)", "testbed", experiment_section33),
        ExperimentSpec("sec41", "Input-list assembly (Section 4.1)", "scan", experiment_section41),
        ExperimentSpec("sec42", "Wild categories (Section 4.2)", "scan", experiment_section42),
        ExperimentSpec("sec42_ns", "Nameserver concentration (Section 4.2)", "scan", experiment_section42_ns),
        ExperimentSpec("fig1", "Per-TLD CDF (Figure 1)", "scan", experiment_figure1),
        ExperimentSpec("fig2", "Tranco CDF (Figure 2)", "scan", experiment_figure2),
    )
}


def run_experiments(
    ids: list[str] | None = None, scan_scale: int = 10_000
) -> list[ExperimentReport]:
    """Run the requested experiments (default: all), sharing contexts."""
    selected = [EXPERIMENTS[i] for i in (ids or list(EXPERIMENTS))]
    testbed_ctx: TestbedContext | None = None
    scan_ctx: ScanContext | None = None
    reports = []
    for spec in selected:
        if spec.needs == "testbed":
            if testbed_ctx is None:
                testbed_ctx = TestbedContext.create()
            reports.append(spec.runner(testbed_ctx))
        elif spec.needs == "scan":
            if scan_ctx is None:
                scan_ctx = ScanContext.create(scale=scan_scale)
            reports.append(spec.runner(scan_ctx))
        else:
            reports.append(spec.runner())
    return reports
