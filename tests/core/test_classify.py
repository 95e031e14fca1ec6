"""Tests for the dynamics classification machinery (Section 1.2)."""

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.graphs.generators import path_network, star_network
from repro.instances.figures import fig3_sum_asg_cycle
from repro.statespace import classify_reachable


class TestExploration:
    def test_stable_start_single_state(self):
        rep = classify_reachable(SwapGame("sum"), star_network(5))
        assert rep.n_states == 1 and rep.graph.sinks() == [0]
        assert rep.n_stable == 1

    def test_path_asg_reaches_stars(self):
        game = AsymmetricSwapGame("sum")
        rep = classify_reachable(game, path_network(5))
        assert rep.n_states > 1
        sinks = rep.graph.sinks()
        assert sinks and rep.n_stable == len(sinks)
        for i in sinks:
            assert game.is_stable(rep.graph.network(i))

    def test_truncation_flag(self):
        """A state whose successors the budget dropped is not stable."""
        game = AsymmetricSwapGame("sum")
        rep = classify_reachable(game, path_network(6), max_states=3)
        assert rep.truncated
        assert rep.n_states == 3
        sinks = rep.graph.sinks()
        assert rep.n_stable == len(sinks)
        for i in sinks:
            assert game.is_stable(rep.graph.network(i))


class TestClassification:
    def test_tree_asg_is_fip_on_component(self):
        """Corollary 3.1: tree ASG dynamics always converge — the
        reachable better-response digraph from a tree is acyclic."""
        rep = classify_reachable(AsymmetricSwapGame("sum"), path_network(5))
        assert rep.fip
        assert rep.weakly_acyclic
        assert rep.n_stable >= 1
        assert rep.longest_improving_path > 0

    def test_tree_max_sg_is_fip(self):
        rep = classify_reachable(SwapGame("max"), path_network(5))
        assert rep.fip and rep.weakly_acyclic

    def test_fig3_not_br_weakly_acyclic(self):
        """Theorem 3.3: from fig3's G1, best-response play cycles with no
        stable state reachable."""
        inst = fig3_sum_asg_cycle()
        rep = classify_reachable(inst.game, inst.network, moves="best")
        assert rep.n_states == 4
        assert rep.n_stable == 0
        assert rep.has_improvement_cycle
        assert not rep.weakly_acyclic
        assert not rep.truncated
        assert rep.longest_improving_path is None

    def test_fig3_has_improvement_cycle_but_is_weakly_acyclic(self):
        """Under *all* improving moves fig3's component contains the BR
        cycle but also escapes to stable states (the subtle gap between
        Theorem 3.3 and Corollary 3.6 documented in EXPERIMENTS.md)."""
        inst = fig3_sum_asg_cycle()
        rep = classify_reachable(inst.game, inst.network, max_states=30_000)
        assert rep.has_improvement_cycle
        assert not rep.fip
        assert (rep.n_states, rep.n_stable) == (46, 3)
        assert rep.weakly_acyclic
        assert not rep.truncated
