"""Adversarial worst-case convergence via longest response-DAG paths.

On trees the better-response digraph is acyclic (Theorem 2.1 /
Corollary 3.1), so its longest path from the initial state is the exact
worst case over *all* move policies and tie-breakings — the quantity the
paper's O(n^3) bounds cap.
"""

import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.graphs.generators import path_network, random_tree_network, star_network
from repro.instances.figures import fig3_sum_asg_cycle
from repro.statespace import classify_reachable
from repro.theory.bounds import max_sg_tree_bound


class TestLongestPath:
    def test_star_is_zero(self):
        rep = classify_reachable(SwapGame("max"), star_network(5))
        assert rep.longest_improving_path == 0

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_path_worst_case_within_cubic_bound(self, n):
        game = SwapGame("max")
        rep = classify_reachable(game, path_network(n), max_states=50_000)
        assert not rep.truncated
        worst = rep.longest_improving_path
        assert 0 < worst <= max_sg_tree_bound(n) + n  # bound plus slack for tiny n

    def test_asg_worst_case_at_least_policy_run(self):
        """The adversarial worst case dominates any concrete policy run."""
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import MaxCostPolicy, RandomPolicy

        net = path_network(5, "alternate")
        game = AsymmetricSwapGame("sum")
        rep = classify_reachable(game, net, max_states=50_000)
        assert not rep.truncated
        worst = rep.longest_improving_path
        for policy in (MaxCostPolicy(), RandomPolicy()):
            res = run_dynamics(game, net, policy, seed=3)
            assert res.converged
            assert res.steps <= worst

    def test_cycle_is_unbounded(self):
        inst = fig3_sum_asg_cycle()
        rep = classify_reachable(inst.game, inst.network, moves="best")
        assert rep.has_improvement_cycle
        assert rep.longest_improving_path is None

    def test_worst_case_grows_with_n(self):
        game = SwapGame("sum")
        worst = {}
        for n in (4, 5, 6):
            rep = classify_reachable(game, path_network(n), max_states=80_000)
            assert not rep.truncated
            worst[n] = rep.longest_improving_path
        assert worst[4] <= worst[5] <= worst[6]


class TestDegreePreservation:
    """What a swap preserves: the edge count and the mover's degree.  The
    degree sequence itself drifts (the old neighbour loses an edge, the
    new one gains it): the MAX-SG run below takes a tree of maximum
    degree 3 to one with a degree-7 hub."""

    def test_degrees_constant_along_runs(self):
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import RandomPolicy
        from repro.graphs import adjacency as adj

        net = random_tree_network(10, seed=5)
        game = SwapGame("max")
        res = run_dynamics(game, net, RandomPolicy(), seed=5)
        assert res.converged and res.trajectory
        work = net.copy()
        for rec in res.trajectory:
            deg_before = adj.degrees(work.A)
            m_before = work.m
            rec.move.apply(work)
            assert work.m == m_before
            assert adj.degrees(work.A)[rec.agent] == deg_before[rec.agent]
        assert work.state_key() == res.final.state_key()

    def test_mover_degree_preserved_exactly(self):
        from repro.graphs import adjacency as adj

        net = path_network(7)
        game = SwapGame("sum")
        for u in range(net.n):
            for move, _ in game.improving_moves(net, u):
                work = net.copy()
                deg_before = adj.degrees(work.A)
                move.apply(work)
                deg_after = adj.degrees(work.A)
                # mover keeps its degree; old target loses one, new gains one
                assert deg_after[move.agent] == deg_before[move.agent]
                assert deg_after[move.old] == deg_before[move.old] - 1
                assert deg_after[move.new] == deg_before[move.new] + 1
