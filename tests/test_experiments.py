"""Experiment harnesses and report rendering."""

import pytest

from repro.experiments.harness import (
    PAPER_CATEGORY_COUNTS,
    ScanContext,
    TestbedContext,
    experiment_figure1,
    experiment_figure2,
    experiment_section33,
    experiment_section42,
    experiment_section42_ns,
    experiment_table1,
    experiment_table2_3,
    experiment_table4,
    seeded_code_counts,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import ExperimentReport, render_cdf, render_table


class TestReportRendering:
    def test_render_table(self):
        text = render_table(("a", "bb"), [(1, 2), (30, 40)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bb" in lines[1]
        assert "30" in lines[-1]

    def test_render_cdf_shape(self):
        series = [(i / 10, i / 10) for i in range(11)]
        text = render_cdf(series, title="diag")
        assert text.splitlines()[0] == "diag"
        assert "*" in text

    def test_render_cdf_empty(self):
        assert "(no data)" in render_cdf([], title="x")

    def test_check_close(self):
        report = ExperimentReport("x", "t")
        report.check_close("m", 100, 108)
        report.check_close("m2", 100, 150)
        assert report.comparisons[0].ok
        assert not report.comparisons[1].ok
        assert not report.all_ok

    def test_check_close_zero_paper(self):
        report = ExperimentReport("x", "t")
        report.check_close("m", 0, 0)
        report.check_close("m2", 0, 3)
        assert report.comparisons[0].ok and not report.comparisons[1].ok

    def test_render_marks_diffs(self):
        report = ExperimentReport("x", "t")
        report.check("good", 1, 1, True)
        report.check("bad", 1, 2, False)
        text = report.render()
        assert "DIFF" in text and "OK" in text


class TestStaticExperiments:
    def test_table1_all_ok(self):
        report = experiment_table1()
        assert report.all_ok
        assert "Synthesized" in report.body

    def test_registry_lists_every_paper_artifact(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2_3", "table4", "sec32", "sec33", "sec41",
            "sec42", "sec42_ns", "fig1", "fig2",
        }

    def test_paper_category_counts_table(self):
        # These are the exact Section 4.2 numbers.
        assert PAPER_CATEGORY_COUNTS[22] == 13_965_865
        assert PAPER_CATEGORY_COUNTS[0] == 7
        assert sum(PAPER_CATEGORY_COUNTS.values()) > 28_000_000  # overlapping


class TestTestbedExperiments:
    @pytest.fixture(scope="class")
    def ctx(self, testbed, matrix):
        return TestbedContext(testbed=testbed, matrix=matrix)

    def test_table2_3(self, ctx):
        report = experiment_table2_3(ctx)
        assert report.all_ok, report.render()

    def test_table4(self, ctx):
        report = experiment_table4(ctx)
        assert report.all_ok, report.render()
        assert "Live matrix" in report.body

    def test_section33(self, ctx):
        report = experiment_section33(ctx)
        assert report.all_ok, report.render()


class TestScanExperiments:
    @pytest.fixture(scope="class")
    def ctx(self, small_population, small_wild, small_scan):
        return ScanContext(
            population=small_population, wild=small_wild, result=small_scan
        )

    def test_seeded_code_counts(self, ctx):
        seeded = seeded_code_counts(ctx.population)
        assert seeded[22] >= seeded[23]
        assert 13 in seeded and 0 in seeded

    def test_section42_seeded_checks_pass(self, ctx):
        report = experiment_section42(ctx)
        seeded_rows = [c for c in report.comparisons if "(seeded)" in c.metric]
        assert seeded_rows and all(c.ok for c in seeded_rows), report.render()
        accuracy = [c for c in report.comparisons if "accuracy" in c.metric]
        assert accuracy[0].ok

    def test_section42_ns_runs(self, ctx):
        report = experiment_section42_ns(ctx)
        assert any("unique broken" in c.metric for c in report.comparisons)

    def test_figures_run(self, ctx):
        # At this tiny scale the sampling checks may legitimately DIFF;
        # the harness must still produce complete, well-formed reports.
        fig1 = experiment_figure1(ctx)
        assert "gTLDs" in fig1.body
        fig2 = experiment_figure2(ctx)
        assert fig2.comparisons
