"""Tests for the report formatting and FigureResult accessors."""

import pytest

from repro.analysis.stats import ConvergenceStats
from repro.experiments.config import FigureSpec
from repro.experiments.report import envelope_value, figure_summary, format_figure
from repro.experiments.runner import FigureResult
from repro.registry import ScenarioSpec


def make_result(with_empty_cell=False, with_nonconverged=False):
    cfg = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                       topology_params={"budget": 1})
    spec = FigureSpec(
        figure="figX", title="synthetic", configs=(cfg,),
        n_values=(10, 20), trials=3, envelope=("5n", "nlogn"),
    )
    result = FigureResult(spec)
    s10 = ConvergenceStats()
    for x in (4, 6, 8):
        s10.add(x, True)
    s20 = ConvergenceStats()
    if not with_empty_cell:
        s20.add(15, True)
    if with_nonconverged:
        s20.add(999, False)
    result.series["k=1, max cost"] = {10: s10, 20: s20}
    return result


class TestFigureResult:
    def test_mean_and_max_series(self):
        r = make_result()
        assert r.mean_series("k=1, max cost") == [(10, 6.0), (20, 15.0)]
        assert r.max_series("k=1, max cost") == [(10, 8.0), (20, 15.0)]

    def test_overall_max_ratio(self):
        r = make_result()
        assert r.overall_max_ratio() == pytest.approx(0.8)  # 8/10

    def test_non_converged_total(self):
        r = make_result(with_nonconverged=True)
        assert r.non_converged_total() == 1


class TestFormatting:
    def test_format_mean_table(self):
        text = format_figure(make_result(), "mean")
        assert "synthetic" in text
        assert "k=1, max cost" in text
        assert "[5n]" in text and "[nlogn]" in text
        assert "all runs converged" in text

    def test_format_max_table(self):
        text = format_figure(make_result(), "max")
        assert "       8" in text

    def test_empty_cell_renders_dash(self):
        text = format_figure(make_result(with_empty_cell=True), "mean")
        assert "-" in text.splitlines()[3]

    def test_nonconverged_flagged(self):
        text = format_figure(make_result(with_nonconverged=True), "mean")
        assert "NON-CONVERGED RUNS: 1" in text

    def test_summary_round_trip(self):
        summary = figure_summary(make_result())
        assert summary["figure"] == "figX"
        assert summary["series"]["k=1, max cost"][10]["mean"] == 6.0

    def test_envelope_values(self):
        assert envelope_value("7n", 10) == 70
        assert envelope_value("nlogn", 1) == 0.0
