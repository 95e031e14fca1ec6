"""Tests for the tree-convergence theory (Sections 2.1 and 3.1).

Theorem 2.1 (MAX-SG on trees: poly-FIPG, O(n^3)), Lemma 2.6 (sorted cost
vector potential), Theorem 2.11 (max cost policy: Theta(n log n)),
Corollaries 3.1/3.2 (the ASG inherits both).
"""

import numpy as np
import pytest

from repro.analysis.equilibria import stable_tree_shape
from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.core.policies import MaxCostPolicy, RandomPolicy
from repro.graphs import adjacency as adj
from repro.graphs.generators import path_network, random_tree_network, star_network
from repro.theory.bounds import (
    diameter_phase_bound,
    max_sg_tree_bound,
    nlogn,
    sum_asg_maxcost_bound,
)
from repro.theory.tree_dynamics import (
    Theorem211Policy,
    lex_less,
    path_lower_bound_run,
    potential_decreases,
    run_tree_dynamics,
)


class TestLexAndPotential:
    def test_lex_less(self):
        assert lex_less(np.array([3, 2, 1]), np.array([3, 3, 0]))
        assert not lex_less(np.array([3, 3]), np.array([3, 3]))
        assert not lex_less(np.array([4, 0]), np.array([3, 9]))

    def test_lemma_2_6_on_every_improving_move(self):
        """Every improving MAX-SG move on a random tree lexicographically
        decreases the sorted cost vector."""
        game = SwapGame("max")
        for seed in range(6):
            net = random_tree_network(10, seed=seed)
            for u in range(net.n):
                for move, _ in game.improving_moves(net, u):
                    after = net.copy()
                    move.apply(after)
                    assert potential_decreases(net, after, "max")

    def test_sum_potential_social_cost(self):
        """Corollary 3.1's potential: improving SUM moves on trees
        decrease the total distance."""
        game = SwapGame("sum")
        for seed in range(6):
            net = random_tree_network(10, seed=seed)
            for u in range(net.n):
                for move, _ in game.improving_moves(net, u):
                    after = net.copy()
                    move.apply(after)
                    assert potential_decreases(net, after, "sum")


class TestTheorem21:
    """MAX-SG on trees converges; steps far below the O(n^3) bound."""

    @pytest.mark.parametrize("n", [6, 10, 16])
    def test_converges_within_bound(self, n):
        game = SwapGame("max")
        for seed in range(3):
            net = random_tree_network(n, seed=seed)
            rep = run_tree_dynamics(game, net, RandomPolicy(), seed=seed)
            assert rep.result.converged
            assert rep.steps <= max_sg_tree_bound(n)
            assert rep.potential_ok

    def test_diameter_never_increases(self):
        game = SwapGame("max")
        net = path_network(12)
        rep = run_tree_dynamics(game, net, RandomPolicy(), seed=7)
        assert rep.diameter_monotone

    def test_final_trees_are_stars_or_double_stars(self):
        """Alon et al.: the only stable MAX-SG trees have diameter <= 3."""
        game = SwapGame("max")
        for seed in range(5):
            net = random_tree_network(11, seed=seed)
            rep = run_tree_dynamics(game, net, MaxCostPolicy(), seed=seed)
            assert rep.result.converged
            assert stable_tree_shape(rep.result.final) in ("star", "double-star")

    def test_sum_sg_final_trees_are_stars(self):
        game = SwapGame("sum")
        for seed in range(5):
            net = random_tree_network(11, seed=seed)
            rep = run_tree_dynamics(game, net, MaxCostPolicy(), seed=seed, check_potential=False)
            assert rep.result.converged
            assert stable_tree_shape(rep.result.final) == "star"


class TestTheorem211:
    """The max cost policy speeds MAX-SG trees to Theta(n log n)."""

    def test_path_run_is_superlinear_sub_nlogn(self):
        steps = {}
        for n in (9, 17, 33):
            rep = path_lower_bound_run(n)
            assert rep.result.converged
            steps[n] = rep.steps
            assert rep.steps <= 2 * nlogn(n)
        # superlinear growth: doubling n more than doubles the steps
        assert steps[17] > 2 * steps[9] * 0.9
        assert steps[33] > 2 * steps[17] * 0.9

    def test_policy_moves_only_leaves(self):
        """Observation 2.12: a maximum-cost agent of a tree is a leaf."""
        from repro.core.dynamics import run_dynamics

        net = path_network(10)
        game = SwapGame("max")
        deg_at_move = []

        class SpyPolicy(Theorem211Policy):
            def select(self, game, net_, rng, backend=None):
                br = super().select(game, net_, rng, backend=backend)
                if br is not None:
                    deg_at_move.append(net_.degree(br.agent))
                return br

        run_dynamics(game, net, SpyPolicy(), seed=0)
        assert deg_at_move and all(d == 1 for d in deg_at_move)

    def test_maxcost_faster_than_worst_case(self):
        """The policy's O(n log n) is far below the adversarial O(n^3)."""
        n = 21
        rep = path_lower_bound_run(n)
        assert rep.steps < max_sg_tree_bound(n) / 10


class TestCorollary32:
    """SUM + max cost on trees: <= n-3 (even) / n+ceil(n/2)-5 (odd).

    The exact bound is proved for the *SG* in [13]; the paper transfers
    it to the ASG via "upper bounds carry over trivially".  Our runs
    show that transfer fails (see ``test_paper_gap_asg_exceeds_bound``);
    what does hold for the ASG empirically is a 2n envelope.
    """

    @pytest.mark.parametrize("n", [6, 8, 9, 11, 12, 15])
    def test_exact_bound_holds_for_sum_sg_on_paths(self, n):
        game = SwapGame("sum")
        net = path_network(n)
        rep = run_tree_dynamics(
            game, net, MaxCostPolicy(tie_break="index"), seed=1, check_potential=False
        )
        assert rep.result.converged
        assert rep.steps <= sum_asg_maxcost_bound(n)
        assert stable_tree_shape(rep.result.final) == "star"

    def test_path12_is_tight_for_the_sg(self):
        """[13]'s bound is tight: the SG on P12 needs exactly n-3 = 9."""
        rep = run_tree_dynamics(
            SwapGame("sum"), path_network(12), MaxCostPolicy(tie_break="index"),
            seed=1, check_potential=False,
        )
        assert rep.steps == 9

    def test_paper_gap_asg_exceeds_bound(self):
        """Reproduction finding: the SUM-ASG on the directed-line P12
        needs 11 > n-3 = 9 steps under the max cost policy and converges
        to a *double star* (ownership pins the remaining leaves).  The
        corollary's 'upper bounds carry over trivially' argument is
        unsound — restricting moves reroutes the trajectory."""
        game = AsymmetricSwapGame("sum")
        net = path_network(12, "forward")
        rep = run_tree_dynamics(
            game, net, MaxCostPolicy(tie_break="index"), seed=1, check_potential=False
        )
        assert rep.result.converged
        assert rep.steps == 11 > sum_asg_maxcost_bound(12)
        assert stable_tree_shape(rep.result.final) == "double-star"

    @pytest.mark.parametrize("n", [6, 8, 9, 11, 12, 15])
    def test_asg_linear_envelope_on_paths(self, n):
        game = AsymmetricSwapGame("sum")
        for ownership in ("forward", "backward", "alternate"):
            net = path_network(n, ownership)
            rep = run_tree_dynamics(
                game, net, MaxCostPolicy(tie_break="index"), seed=1, check_potential=False
            )
            assert rep.result.converged
            assert rep.steps <= 2 * n

    @pytest.mark.parametrize("n", [7, 9, 12, 14])
    def test_asg_linear_envelope_on_random_trees(self, n):
        game = AsymmetricSwapGame("sum")
        for seed in range(4):
            net = random_tree_network(n, seed=seed)
            rep = run_tree_dynamics(
                game, net, MaxCostPolicy(), seed=seed, check_potential=False
            )
            assert rep.result.converged
            assert rep.steps <= 2 * n

    def test_bound_formula(self):
        assert sum_asg_maxcost_bound(10) == 7
        assert sum_asg_maxcost_bound(11) == 12
        assert sum_asg_maxcost_bound(3) == 0  # max(0, .) guard
        assert sum_asg_maxcost_bound(4) == 1

    @pytest.mark.parametrize("n", [8, 9, 13])
    def test_max_asg_converges_on_trees(self, n):
        """Corollary 3.2's MAX part: Theta(n log n) under max cost; we
        check convergence and the n log n envelope."""
        game = AsymmetricSwapGame("max")
        for seed in range(3):
            net = random_tree_network(n, seed=seed)
            rep = run_tree_dynamics(game, net, MaxCostPolicy(), seed=seed)
            assert rep.result.converged
            assert rep.steps <= 3 * nlogn(n) + n


class TestStarIsFixedPoint:
    def test_star_zero_steps(self):
        for mode in ("sum", "max"):
            rep = run_tree_dynamics(
                SwapGame(mode), star_network(8), MaxCostPolicy(), seed=0,
                check_potential=False,
            )
            assert rep.result.converged and rep.steps == 0
