"""Tests for the experiment configuration and the sweep runner."""

import numpy as np
import pytest

from repro.experiments.asg_budget import figure7_spec, figure8_spec
from repro.experiments.gbg import figure11_spec, figure13_spec
from repro.experiments.report import envelope_value, figure_summary, format_figure
from repro.experiments.runner import (
    build_game,
    build_initial,
    build_policy,
    resolve_n_jobs,
    run_cell,
    run_figure,
)
from repro.experiments.topology import figure12_spec, figure14_spec
from repro.registry import ScenarioSpec
from repro.registry.builtin import resolve_alpha_spec, resolve_m_spec


def asg(policy="maxcost", k=1, mode="sum"):
    """A bounded-budget ASG cell."""
    return ScenarioSpec(game="asg", policy=policy, game_params={"mode": mode},
                        topology_params={"budget": k})


def gbg(topology="random", alpha="n/4", policy="maxcost", mode="sum", **topo):
    """A GBG cell; ``topo`` holds the topology's parameters."""
    return ScenarioSpec(game="gbg", policy=policy, topology=topology,
                        game_params={"mode": mode, "alpha": alpha},
                        topology_params=topo)


class TestResolveNJobs:
    def test_invalid_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "lots")
        with pytest.raises(ValueError, match="REPRO_N_JOBS must be an integer"):
            resolve_n_jobs(None, 100)

    def test_empty_env_behaves_like_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        baseline = resolve_n_jobs(None, 100)
        monkeypatch.setenv("REPRO_N_JOBS", "")
        assert resolve_n_jobs(None, 100) == baseline
        monkeypatch.setenv("REPRO_N_JOBS", "   ")
        assert resolve_n_jobs(None, 100) == baseline

    def test_zero_and_negative_are_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_N_JOBS must be at least 1"):
            resolve_n_jobs(None, 100)
        monkeypatch.setenv("REPRO_N_JOBS", "-3")
        with pytest.raises(ValueError, match="REPRO_N_JOBS must be at least 1"):
            resolve_n_jobs(None, 100)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_jobs must be at least 1"):
                resolve_n_jobs(bad, 100)

    def test_valid_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert resolve_n_jobs(None, 100) == 3
        # small cells too — the env var wins over the pool heuristic
        assert resolve_n_jobs(None, 2) == 3

    def test_explicit_n_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "7")
        assert resolve_n_jobs(2, 100) == 2


class TestConfig:
    def test_alpha_resolution(self):
        assert resolve_alpha_spec("n/4", 40) == 10.0
        assert resolve_alpha_spec("2.5", 40) == 2.5
        with pytest.raises(ValueError, match="requires parameter 'alpha'"):
            ScenarioSpec(game="gbg", game_params={"mode": "sum"},
                         topology="random")

    def test_m_resolution(self):
        assert resolve_m_spec("4n", 25) == 100

    def test_m_resolution_accepts_plain_integer_strings(self):
        assert resolve_m_spec("37", 25) == 37

    def test_m_resolution_unknown_spec_is_value_error(self):
        """A bad spec raises ValueError like resolve_alpha_spec, not a
        raw KeyError."""
        with pytest.raises(ValueError, match="m_edges"):
            resolve_m_spec("lots", 25)

    def test_series_name(self):
        assert asg(k=3).series_name() == "k=3, max cost"
        assert gbg("dl", alpha="n", policy="random",
                   mode="max").series_name() == "a=n, dl, random"

    def test_series_name_uses_registered_policy_name(self):
        """Non-maxcost policies are labelled by their registry name, not
        blanket 'random'."""
        assert asg("greedy", k=3).series_name() == "k=3, greedy"

    def test_paper_scale(self):
        spec = figure7_spec().paper_scale()
        assert spec.n_values == tuple(range(10, 101, 10))
        assert spec.trials == 10_000
        spec13 = figure13_spec().paper_scale()
        assert spec13.trials == 5_000

    def test_scaled(self):
        spec = figure7_spec().scaled([10, 20], 5)
        assert spec.n_values == (10, 20) and spec.trials == 5


class TestBuilders:
    def test_build_game(self):
        assert type(build_game(asg(), 10)).__name__ == "AsymmetricSwapGame"
        game = build_game(gbg(mode="max", m_edges="n"), 20)
        assert type(game).__name__ == "GreedyBuyGame" and game.alpha == 5.0

    def test_build_policy(self):
        assert type(build_policy(asg("maxcost"))).__name__ == "MaxCostPolicy"
        assert type(build_policy(asg("random"))).__name__ == "RandomPolicy"

    def test_build_initial_topologies(self):
        rng = np.random.default_rng(0)
        net = build_initial(asg(k=2), 12, rng)
        assert (net.budget_vector() == 2).all()
        net2 = build_initial(gbg(m_edges="2n"), 12, rng)
        assert net2.m == 24
        net3 = build_initial(gbg("rl"), 12, rng)
        assert net3.m == 11
        net4 = build_initial(gbg("dl"), 12, rng)
        assert net4.owned_edge_list() == [(i, i + 1) for i in range(11)]


class TestRunCell:
    def test_reproducible(self):
        cfg = asg()
        a = run_cell(cfg, 12, trials=5, seed=3)
        b = run_cell(cfg, 12, trials=5, seed=3)
        assert a.steps == b.steps

    def test_different_seeds_differ(self):
        cfg = asg("random", k=2)
        a = run_cell(cfg, 14, trials=6, seed=1)
        b = run_cell(cfg, 14, trials=6, seed=2)
        assert a.steps != b.steps

    def test_all_converge_small(self):
        cfg = gbg(policy="random", m_edges="n")
        stats = run_cell(cfg, 12, trials=8, seed=0)
        assert stats.non_converged == 0
        assert stats.trials == 8

    def test_parallel_matches_serial(self):
        cfg = asg()
        a = run_cell(cfg, 12, trials=6, seed=5, n_jobs=1)
        b = run_cell(cfg, 12, trials=6, seed=5, n_jobs=2)
        assert sorted(a.steps) == sorted(b.steps)


class TestRunFigureAndReport:
    @pytest.fixture(scope="class")
    def small_result(self):
        spec = figure7_spec(budgets=(1,), n_values=(10, 14), trials=4)
        return run_figure(spec, seed=1)

    def test_series_present(self, small_result):
        assert set(small_result.series) == {"k=1, max cost", "k=1, random"}
        assert set(small_result.series["k=1, max cost"]) == {10, 14}

    def test_envelope_respected(self, small_result):
        assert small_result.overall_max_ratio() < 5.0  # the paper's 5n claim

    def test_format_figure(self, small_result):
        text = format_figure(small_result, "mean")
        assert "k=1, max cost" in text and "[5n]" in text
        text2 = format_figure(small_result, "max")
        assert "all runs converged" in text2

    def test_figure_summary(self, small_result):
        summary = figure_summary(small_result)
        assert summary["figure"] == "fig7"
        assert summary["non_converged"] == 0

    def test_envelope_value(self):
        assert envelope_value("5n", 20) == 100
        assert envelope_value("nlogn", 8) == 24
        with pytest.raises(ValueError):
            envelope_value("n^2", 5)

    def test_all_specs_construct(self):
        for spec_fn in (figure7_spec, figure8_spec, figure11_spec,
                        figure12_spec, figure13_spec, figure14_spec):
            spec = spec_fn()
            assert spec.configs and spec.n_values and spec.trials


class TestTrialRecord:
    """run_trial's extensible record: steps and status plus the
    scenario's metrics."""

    def job(self, cfg, n=10):
        from repro.experiments.runner import trial_jobs

        return trial_jobs(cfg, n, trials=1, seed=0)[0]

    def test_record_reports_steps_and_status(self):
        from repro.experiments.runner import run_trial

        rec = run_trial(self.job(asg()))
        assert rec.steps >= 0
        assert rec.status == "converged" and rec.converged

    def test_default_metrics_mirror_steps_status(self):
        from repro.experiments.runner import run_trial

        rec = run_trial(self.job(asg()))
        assert rec.metrics == {"steps": rec.steps, "status": rec.status}
        assert rec.extra_metrics() == {}
        assert rec.rounds is None

    def test_scenario_metrics_evaluated(self):
        from repro.experiments.runner import run_trial
        from repro.registry import ScenarioSpec

        spec = ScenarioSpec(
            game="gbg", game_params={"mode": "sum", "alpha": "n/4"},
            topology="random", topology_params={"m_edges": "2n"},
            metrics=("steps", "status", "social_cost", "diameter", "edges",
                     "cost_ratio", "converged", "max_agent_cost"),
        )
        rec = run_trial(self.job(spec, n=12))
        extra = rec.extra_metrics()
        assert set(extra) == {"social_cost", "diameter", "edges", "cost_ratio",
                              "converged", "max_agent_cost"}
        assert extra["social_cost"] > 0 and extra["diameter"] >= 1
        assert extra["converged"] is True
        assert 0 < extra["cost_ratio"] < 10
        import json

        json.dumps(rec.metrics)  # the whole payload must be storable

    def test_simultaneous_dynamics_fills_rounds(self):
        from repro.experiments.runner import run_trial
        from repro.registry import ScenarioSpec

        spec = ScenarioSpec(
            game="asg", game_params={"mode": "sum"},
            topology_params={"budget": 1}, dynamics="simultaneous",
            metrics=("steps", "status", "rounds"),
        )
        rec = run_trial(self.job(spec, n=10))
        assert rec.rounds is not None and rec.rounds >= 0
        assert rec.metrics["rounds"] == rec.rounds

    def test_metrics_do_not_change_a_cells_trials(self):
        """Metrics lie outside the canonical form, so a cell that reports
        more of them draws the exact same trials, end to end."""
        cfg = asg()
        a = run_cell(cfg, 12, trials=5, seed=3, n_jobs=1)
        b = run_cell(cfg.with_(metrics=("steps", "status", "diameter")),
                     12, trials=5, seed=3, n_jobs=1)
        assert a.steps == b.steps

    def test_run_scenario_returns_outcome(self):
        from repro.experiments.runner import run_scenario
        from repro.registry import ScenarioSpec

        spec = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                            topology_params={"budget": 2})
        record, outcome = run_scenario(spec, 15, seed=1)
        assert record.status == outcome.status
        assert outcome.final.n == 15


class TestExhaustedAccounting:
    """``status == "exhausted"`` runs must land in ``non_converged`` and
    flow through to ``FigureResult.non_converged_total``."""

    def test_non_converged_total_counts_exhausted_cells(self):
        from repro.analysis.stats import ConvergenceStats
        from repro.experiments.runner import FigureResult

        spec = figure7_spec(budgets=(1,), n_values=(10,), trials=4)
        result = FigureResult(spec)
        ok = ConvergenceStats()
        ok.add(5, True)
        ok.add(7, True)
        capped = ConvergenceStats()
        capped.add(500, False)  # hit the step cap → exhausted
        capped.add(3, True)
        result.series["a"] = {10: ok}
        result.series["b"] = {10: capped, 14: capped}
        assert result.non_converged_total() == 2
        assert "NON-CONVERGED RUNS: 2" in format_figure(result, "max")

    def test_step_cap_produces_exhausted_trials_end_to_end(self):
        """A zero step budget exhausts every trial; the runner reports
        them all as non-converged, none as steps."""
        from repro.experiments.runner import run_trial, trial_jobs

        cfg = asg()
        for job in trial_jobs(cfg, 8, trials=3, seed=0, max_steps_factor=0):
            rec = run_trial(job)
            assert rec.status == "exhausted" and rec.steps == 0
        stats = run_cell(cfg, 8, trials=3, seed=0, max_steps_factor=0, n_jobs=1)
        assert stats.non_converged == stats.trials == 3
        assert stats.steps == []
