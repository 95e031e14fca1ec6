"""Deep verification of Figures 5/6 (Theorem 3.7, unit-budget ASG cycles)."""

import numpy as np
import pytest

from repro.core.games import AsymmetricSwapGame
from repro.core.moves import Swap
from repro.graphs import adjacency as adj
from repro.instances.figures import (
    fig5_sum_asg_unit_budget_cycle,
    fig6_max_asg_unit_budget_cycle,
)
from repro.instances.verify import verify_cycle


@pytest.fixture(scope="module")
def fig5():
    return fig5_sum_asg_unit_budget_cycle()


@pytest.fixture(scope="module")
def fig6():
    return fig6_max_asg_unit_budget_cycle()


class TestFig5:
    """Theorem 3.7 (SUM): unit-budget BR cycle, answering Ehsani et al."""

    def test_every_agent_owns_exactly_one_edge(self, fig5):
        assert (fig5.network.budget_vector() == 1).all()

    def test_unicyclic(self, fig5):
        net = fig5.network
        assert net.m == net.n and net.is_connected()

    def test_group_sizes_match_proof(self, fig5):
        """nc = nb + nd + 1 (the proof's accounting identity): 8 = 3+4+1."""
        labels = fig5.network.labels
        counts = {g: sum(1 for l in labels if l.startswith(g)) for g in "abcd"}
        assert counts == {"a": 5, "b": 3, "c": 8, "d": 4}
        assert counts["c"] == counts["b"] + counts["d"] + 1

    def test_cycle_with_paper_decreases(self, fig5):
        """The proof's cost decreases: 1, 2, 1, 1."""
        rep = verify_cycle(fig5.game, fig5.network, fig5.moves())
        rep.raise_if_failed()
        assert rep.improvements == [1.0, 2.0, 1.0, 1.0]

    def test_movers_are_a1_b1_alternating(self, fig5):
        movers = [lbl for lbl, _ in fig5.cycle]
        assert movers == ["a1", "b1", "a1", "b1"]

    def test_a3_swap_ties_with_a4(self, fig5):
        """The proof's remark: in step 2 a swap towards a3 yields the
        same cost decrease as the swap towards a4."""
        net = fig5.network.copy()
        fig5.moves()[0][1].apply(net)  # a1 -> c1
        b1 = net.index("b1")
        br = fig5.game.best_responses(net, b1)
        targets = {net.label(m.new) for m in br.moves}
        assert {"a3", "a4"} <= targets

    def test_move4_trade_off_is_8_vs_7(self, fig5):
        """Losing the a4-edge costs 7 while regaining d1 saves 8 — the
        proof's exact numbers."""
        from repro.core.best_response import DeviationEvaluator

        net = fig5.network.copy()
        for _, mv in fig5.moves()[:3]:
            mv.apply(net)  # state 4: a1@b1, b1@a4
        b1, a4, d1 = (net.index(x) for x in ("b1", "a4", "d1"))
        ev = DeviationEvaluator(net, b1, fig5.game.mode, adj.distances_without_vertex(net.A, b1))
        incoming = list(net.incoming_neighbors(b1))
        with_a4 = ev.distance_cost(incoming + [a4])
        without = ev.distance_cost(incoming)
        with_d1 = ev.distance_cost(incoming + [d1])
        assert without - with_a4 == 7.0  # the a4-edge saves 7
        assert without - with_d1 == 8.0  # the d1-edge would save 8

    def test_unique_improving_move_for_a1_in_g1_and_g3(self, fig5):
        """'agent a1 has only one improving move' (G1) and 'this swap is
        agent a1's unique improving move' (G3)."""
        game = fig5.game
        net = fig5.network.copy()
        a1 = net.index("a1")
        imps = game.improving_moves(net, a1)
        assert len(imps) == 1 and imps[0][0] == fig5.moves()[0][1]
        for _, mv in fig5.moves()[:2]:
            mv.apply(net)
        imps3 = game.improving_moves(net, a1)
        assert len(imps3) == 1 and imps3[0][0] == fig5.moves()[2][1]


class TestFig6:
    """Theorem 3.7 (MAX) / Theorem 3.5: MAX-ASG best response cycle."""

    def test_every_agent_owns_exactly_one_edge(self, fig6):
        assert (fig6.network.budget_vector() == 1).all()

    def test_unicyclic(self, fig6):
        net = fig6.network
        assert net.m == net.n and net.is_connected()

    def test_group_sizes_match_figure(self, fig6):
        labels = fig6.network.labels
        counts = {g: sum(1 for l in labels if l.startswith(g)) for g in "abcde"}
        assert counts == {"a": 6, "b": 4, "c": 1, "d": 3, "e": 6}

    def test_cycle_verifies_as_best_response_cycle(self, fig6):
        verify_cycle(fig6.game, fig6.network, fig6.moves()).raise_if_failed()

    def test_movers_alternate_a1_b1(self, fig6):
        movers = [lbl for lbl, _ in fig6.cycle]
        assert movers == ["a1", "b1"] * 2

    def test_a1_toggles_within_e_chain(self, fig6):
        """The paper's move pattern: a1 swaps between e-vertices, b1
        between a-vertices."""
        net = fig6.network
        for i, (lbl, mv) in enumerate(fig6.cycle):
            assert isinstance(mv, Swap)
            old, new = net.label(mv.old), net.label(mv.new)
            if lbl == "a1":
                assert old.startswith("e") and new.startswith("e")
            else:
                assert old.startswith("a") and new.startswith("a")

    def test_refutes_fip_for_max_asg(self, fig6):
        """Theorem 3.5's headline: the MAX-ASG on general networks admits
        best response cycles (hence is not a FIPG).  The DFS over best
        responses of the two movers independently re-discovers a closed
        cycle from the initial state."""
        from repro.instances.search import br_cycle_from

        movers = [fig6.network.index("a1"), fig6.network.index("b1")]
        cyc = br_cycle_from(fig6.game, fig6.network, movers, max_depth=6)
        assert cyc is not None and len(cyc) >= 2


class TestContrastWithTrees:
    """Sanity contrast: the same game types are guaranteed to converge on
    trees (Corollary 3.1), so the cycles above need their non-tree edge."""

    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_tree_asg_always_converges(self, mode):
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import RandomPolicy
        from repro.graphs.generators import random_tree_network

        game = AsymmetricSwapGame(mode)
        for seed in range(5):
            net = random_tree_network(12, seed=seed)
            res = run_dynamics(game, net, RandomPolicy(), seed=seed, max_steps=12**3)
            assert res.converged
