"""Deeper (G)BG instance verification: the strategy-by-strategy claims
in the proof of Theorem 4.1."""

import itertools

import numpy as np
import pytest

from repro.core.games import EPS, BuyGame, GreedyBuyGame
from repro.core.moves import Buy, Delete, StrategyChange, Swap
from repro.graphs import adjacency as adj
from repro.graphs.properties import one_median_vertices
from repro.instances.figures import (
    FIG9_ALPHA,
    FIG10_ALPHA,
    fig9_sum_bg_cycle,
    fig10_max_bg_cycle,
)


@pytest.fixture(scope="module")
def fig9():
    return fig9_sum_bg_cycle()


@pytest.fixture(scope="module")
def fig10():
    return fig10_max_bg_cycle()


class TestFig9ProofDetails:
    def test_g_swap_targets_minimum_cost_vertex_of_g1_minus_g(self, fig9):
        """'buying an edge towards a vertex having minimum cost in
        G1 - g is optimal' — the 1-medians of the path a..f are c and d,
        and both give g distance-cost 15."""
        net = fig9.network
        g = net.index("g")
        keep = [v for v in range(net.n) if v != g]
        sub = net.A[np.ix_(keep, keep)]
        medians = {net.label(keep[m]) for m in one_median_vertices(sub)}
        assert medians == {"c", "d"}
        from repro.core.best_response import DeviationEvaluator

        ev = DeviationEvaluator(net, g, fig9.game.mode, adj.distances_without_vertex(net.A, g))
        assert ev.distance_cost([net.index("c")]) == 15
        assert ev.distance_cost([net.index("d")]) == 15

    def test_g_multi_buy_never_pays(self, fig9):
        """'Buying exactly 1 < k <= 6 edges yields cost of at least
        k*alpha + k + 2(6-k) ... which is no improvement.'"""
        bg = BuyGame("sum", alpha=FIG9_ALPHA)
        net = fig9.network
        g = net.index("g")
        best_single = fig9.game.best_responses(net, g).best_cost
        for mv, cost in bg._scored_moves(net, g):
            if len(mv.new_targets) >= 2:
                assert cost >= best_single - EPS

    def test_f_buy_target_b_ties_with_c(self, fig9):
        """'The target vertex b is optimal, since connecting to c yields
        the same cost.'"""
        net = fig9.network.copy()
        fig9.moves()[0][1].apply(net)  # G2
        game = fig9.game
        f, b, c = (net.index(x) for x in "fbc")
        wb, wc = net.copy(), net.copy()
        Buy(f, b).apply(wb)
        Buy(f, c).apply(wc)
        assert game.current_cost(wb, f) == game.current_cost(wc, f)

    def test_c_swap_away_from_b_never_improves_in_g3(self, fig9):
        """'swapping her unique edge away from b must increase agent c's
        cost since at least one distance increases to 3.'"""
        net = fig9.network.copy()
        for _, mv in fig9.moves()[:2]:
            mv.apply(net)  # G3
        game = fig9.game
        c, b = net.index("c"), net.index("b")
        cur = game.current_cost(net, c)
        for w in range(net.n):
            if w in (c, b) or net.A[c, w]:
                continue
            work = net.copy()
            Swap(c, b, w).apply(work)
            assert game.current_cost(work, c) >= cur - EPS

    def test_cycle_states_alternate_trees_and_unicyclic(self, fig9):
        """G1/G2 trees; G3 adds fb (one cycle); G4 tree again; etc."""
        net = fig9.network.copy()
        sizes = [net.m]
        for _, mv in fig9.moves():
            mv.apply(net)
            sizes.append(net.m)
        assert sizes == [6, 6, 7, 6, 6, 7, 6]


class TestFig10ProofDetails:
    def test_g_single_buy_floor_is_3(self, fig10):
        """'it is easy to see that with one additional edge a
        distance-cost of 3 is best possible' for g in G1."""
        from repro.core.best_response import DeviationEvaluator

        net = fig10.network
        g, h = net.index("g"), net.index("h")
        ev = DeviationEvaluator(net, g, fig10.game.mode, adj.distances_without_vertex(net.A, g))
        best = min(
            ev.distance_cost([h, w]) for w in range(net.n) if w not in (g, h)
        )
        assert best == 3

    def test_g_multi_buy_cannot_beat_single(self, fig10):
        """'no strategy which buys at least two edges can yield strictly
        less cost than 3 + alpha' (alpha > 1: each extra edge saves at
        most 1 eccentricity)."""
        bg = BuyGame("max", alpha=FIG10_ALPHA)
        net = fig10.network
        g = net.index("g")
        for mv, cost in bg._scored_moves(net, g):
            if len(mv.new_targets) >= 2:
                assert cost >= 3 + FIG10_ALPHA - EPS

    def test_e_cannot_delete_or_swap_in_g2(self, fig10):
        """e owns no edges in G1/G2, so only buys are available."""
        net = fig10.network.copy()
        fig10.moves()[0][1].apply(net)  # G2
        e = net.index("e")
        assert net.edges_owned_count(e) == 0
        moves = fig10.game.candidate_moves(net, e)
        assert all(isinstance(m, Buy) for m in moves)

    def test_g3_g_unique_improving_move_is_delete(self, fig10):
        """In G3 the only improving move of g (who owns just ga) is the
        deletion: swaps cannot push distance-cost below 3 and extra buys
        cost more than they save."""
        net = fig10.network.copy()
        for _, mv in fig10.moves()[:2]:
            mv.apply(net)  # G3
        g, a = net.index("g"), net.index("a")
        imps = fig10.game.improving_moves(net, g)
        assert len(imps) == 1
        assert imps[0][0] == Delete(g, a)

    def test_alpha_window_sweep(self, fig10):
        from repro.instances.verify import verify_cycle

        for alpha in (1.1, 1.5, 1.9):
            inst = fig10_max_bg_cycle(alpha=alpha)
            verify_cycle(inst.game, inst.network, inst.moves()).raise_if_failed()
        base = fig10_max_bg_cycle()
        for alpha in (0.9, 2.1):
            game = GreedyBuyGame("max", alpha=alpha)
            rep = verify_cycle(game, base.network, base.moves())
            assert not rep.ok
