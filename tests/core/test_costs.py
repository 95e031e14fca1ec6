"""Tests for cost functions: SUM/MAX distance costs and edge-cost rules."""

import numpy as np
import pytest

from repro.core.costs import EQUAL_SPLIT, OWNER_PAYS, SWAP_EDGE_COST, DistanceMode
from repro.core.games import BilateralGame, BuyGame, Game, GreedyBuyGame, SwapGame
from repro.core.network import Network
from repro.graphs.generators import path_network, star_network


class TestDistanceMode:
    def test_parse(self):
        assert DistanceMode("sum") is DistanceMode.SUM
        assert DistanceMode("max") is DistanceMode.MAX
        with pytest.raises(ValueError):
            DistanceMode("median")

    def test_aggregate(self):
        row = np.array([0.0, 1.0, 2.0, 3.0])
        assert DistanceMode.SUM.aggregate(row) == 6.0
        assert DistanceMode.MAX.aggregate(row) == 3.0

    def test_aggregate_propagates_inf(self):
        row = np.array([0.0, np.inf])
        assert np.isinf(DistanceMode.SUM.aggregate(row))
        assert np.isinf(DistanceMode.MAX.aggregate(row))


class TestAgentCost:
    """``c_G(u)`` through :meth:`Game.current_cost`, the one formula."""

    def test_path_sum(self):
        net = path_network(5)
        assert SwapGame("sum").current_cost(net, 0) == 10
        assert SwapGame("sum").current_cost(net, 2) == 6

    def test_path_max(self):
        net = path_network(5)
        assert SwapGame("max").current_cost(net, 0) == 4
        assert SwapGame("max").current_cost(net, 2) == 2

    def test_disconnected_infinite(self):
        net = Network.from_owned_edges(3, [(0, 1)])
        assert np.isinf(SwapGame("sum").current_cost(net, 0))
        assert np.isinf(SwapGame("max").current_cost(net, 2))

    def test_owner_pays(self):
        net = star_network(5)  # centre owns 4 edges
        game = GreedyBuyGame("sum", alpha=2.0)
        assert game.edge_rule is OWNER_PAYS
        assert game.current_cost(net, 0) == 4 * 2.0 + 4
        assert game.current_cost(net, 1) == 0.0 + (1 + 2 * 3)

    def test_equal_split(self):
        net = star_network(5)
        game = BilateralGame("sum", alpha=2.0)
        assert game.edge_rule is EQUAL_SPLIT
        assert game.current_cost(net, 0) == 4 * 1.0 + 4
        assert game.current_cost(net, 1) == 1.0 + 7

    def test_swap_games_have_no_edge_cost(self):
        net = star_network(5)
        game = Game("sum", alpha=99.0)
        assert game.edge_rule is SWAP_EDGE_COST
        assert game.current_cost(net, 0) == 4


class TestVectorised:
    def test_cost_vector_matches_current_cost(self):
        net = path_network(6, "alternate")
        game = BuyGame("sum", alpha=1.5)
        vec = game.cost_vector(net)
        for u in range(6):
            assert vec[u] == game.current_cost(net, u)

    def test_social_cost(self):
        net = path_network(3)
        # distances: 0: 1+2, 1: 1+1, 2: 2+1 => 8
        assert SwapGame("sum").social_cost(net) == 8
        assert SwapGame("max").social_cost(net) == 2 + 1 + 2

    def test_distance_costs_max(self):
        net = path_network(4)
        assert SwapGame("max").cost_vector(net).tolist() == [3, 2, 2, 3]

    def test_single_vertex(self):
        net = Network.from_owned_edges(1, [])
        assert SwapGame("sum").current_cost(net, 0) == 0
        assert SwapGame("max").current_cost(net, 0) == 0
        assert SwapGame("max").cost_vector(net).tolist() == [0]
