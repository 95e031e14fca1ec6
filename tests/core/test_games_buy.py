"""Tests for GBG and BG: enumeration correctness and tie preferences.

Enumerations are cross-validated against the naive reference model
(``tests.reference``), which rebuilds every post-move network by hand.
"""

import pytest

from repro.core.games import EPS, BuyGame, GreedyBuyGame
from repro.core.moves import Buy, Delete
from repro.core.network import Network
from repro.graphs.generators import path_network, star_network

from tests.helpers import network_from_adjacency, random_connected_adjacency
from tests.reference import Reference, state_of


@pytest.mark.parametrize("mode", ["sum", "max"])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 7.5])
def test_gbg_scored_moves_match_reference(mode, alpha, rng):
    game = GreedyBuyGame(mode, alpha=alpha)
    ref = Reference.of(game)
    for trial in range(4):
        A = random_connected_adjacency(8, 4, rng)
        net = network_from_adjacency(A, rng)
        for u in range(net.n):
            ours = list(game._scored_moves(net, u))
            want = ref.scored(state_of(net), u)
            assert [m for m, _ in ours] == [m for m, _ in want]
            assert [c for _, c in ours] == pytest.approx([c for _, c in want], abs=1e-9)


class TestGBGSemantics:
    def test_high_alpha_prefers_deletion(self):
        # triangle with agent 0 owning two edges; high alpha makes one
        # edge redundant
        net = Network.from_owned_edges(3, [(0, 1), (0, 2), (1, 2)])
        game = GreedyBuyGame("sum", alpha=10.0)
        br = game.best_responses(net, 0)
        assert br.is_improving
        assert isinstance(br.moves[0], Delete)

    def test_low_alpha_buys(self):
        net = path_network(5)
        game = GreedyBuyGame("sum", alpha=0.1)
        br = game.best_responses(net, 0)
        assert br.is_improving
        assert any(isinstance(m, Buy) for m in br.moves)

    def test_tie_preference_order(self):
        """The paper prefers deletions before swaps before buys on ties;
        BestResponse.moves must be ordered accordingly."""
        from repro.core.games import _op_rank

        net = path_network(6, "alternate")
        game = GreedyBuyGame("sum", alpha=1.0)
        for u in range(6):
            br = game.best_responses(net, u)
            ranks = [_op_rank(m) for m in br.moves]
            assert ranks == sorted(ranks)

    def test_star_is_stable_for_big_alpha(self):
        net = star_network(6)
        game = GreedyBuyGame("sum", alpha=20.0)
        assert game.is_stable(net)

    def test_cost_includes_edge_count(self):
        net = star_network(4)
        game = GreedyBuyGame("sum", alpha=3.0)
        assert game.current_cost(net, 0) == 3 * 3.0 + 3


@pytest.mark.parametrize("mode", ["sum", "max"])
def test_bg_enumeration_matches_reference(mode, rng):
    game = BuyGame(mode, alpha=1.5)
    ref = Reference.of(game)
    A = random_connected_adjacency(6, 3, rng)
    net = network_from_adjacency(A, rng)
    for u in range(net.n):
        ours = list(game._scored_moves(net, u))
        want = ref.scored(state_of(net), u)
        assert [m for m, _ in ours] == [m for m, _ in want]
        assert [c for _, c in ours] == pytest.approx([c for _, c in want], abs=1e-9)


class TestBGSemantics:
    def test_bg_guard_on_large_networks(self):
        net = path_network(20)
        game = BuyGame("sum", alpha=1.0, max_enumeration_agents=16)
        with pytest.raises(ValueError, match="enumeration"):
            game.best_responses(net, 0)

    def test_bg_at_least_as_good_as_gbg(self, rng):
        """The BG's best response can never be worse than the GBG's —
        greedy moves are a subset of arbitrary strategy changes."""
        A = random_connected_adjacency(7, 3, rng)
        net = network_from_adjacency(A, rng)
        for mode in ("sum", "max"):
            for alpha in (0.5, 3.0):
                bg = BuyGame(mode, alpha=alpha)
                gbg = GreedyBuyGame(mode, alpha=alpha)
                for u in range(net.n):
                    b1 = bg.best_responses(net, u)
                    b2 = gbg.best_responses(net, u)
                    best_bg = b1.best_cost if b1.moves else b1.cost_before
                    best_gbg = b2.best_cost if b2.moves else b2.cost_before
                    assert best_bg <= best_gbg + EPS

    def test_disconnected_agent_buys_back(self):
        # agent 0 with empty strategy on a path 1-2-3 must buy something
        net = Network.from_owned_edges(4, [(1, 2), (2, 3)])
        game = BuyGame("sum", alpha=1.0)
        br = game.best_responses(net, 0)
        assert br.is_improving
        assert all(len(m.new_targets) >= 1 for m in br.moves)
