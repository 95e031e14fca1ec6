"""Tests for cost functions: SUM/MAX distance costs and edge-cost rules."""

import numpy as np
import pytest

from repro.core import costs
from repro.core.costs import EQUAL_SPLIT, OWNER_PAYS, SWAP_EDGE_COST, DistanceMode
from repro.core.games import BuyGame, SwapGame
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
    def test_path_sum(self):
        net = path_network(5)
        assert costs.agent_cost(net, 0, DistanceMode.SUM) == 10
        assert costs.agent_cost(net, 2, DistanceMode.SUM) == 6

    def test_path_max(self):
        net = path_network(5)
        assert costs.agent_cost(net, 0, DistanceMode.MAX) == 4
        assert costs.agent_cost(net, 2, DistanceMode.MAX) == 2

    def test_disconnected_infinite(self):
        net = Network.from_owned_edges(3, [(0, 1)])
        assert np.isinf(costs.agent_cost(net, 0, DistanceMode.SUM))
        assert np.isinf(costs.agent_cost(net, 2, DistanceMode.MAX))

    def test_owner_pays(self):
        net = star_network(5)  # centre owns 4 edges
        c = costs.agent_cost(net, 0, DistanceMode.SUM, alpha=2.0, edge_rule=OWNER_PAYS)
        assert c == 4 * 2.0 + 4
        leaf = costs.agent_cost(net, 1, DistanceMode.SUM, alpha=2.0, edge_rule=OWNER_PAYS)
        assert leaf == 0.0 + (1 + 2 * 3)

    def test_equal_split(self):
        net = star_network(5)
        c = costs.agent_cost(net, 0, DistanceMode.SUM, alpha=2.0, edge_rule=EQUAL_SPLIT)
        assert c == 4 * 1.0 + 4
        leaf = costs.agent_cost(net, 1, DistanceMode.SUM, alpha=2.0, edge_rule=EQUAL_SPLIT)
        assert leaf == 1.0 + 7

    def test_swap_games_have_no_edge_cost(self):
        net = star_network(5)
        assert costs.agent_cost(net, 0, DistanceMode.SUM, alpha=99.0) == 4


class TestVectorised:
    def test_cost_vector_matches_agent_cost(self):
        net = path_network(6, "alternate")
        vec = BuyGame("sum", alpha=1.5).cost_vector(net)
        for u in range(6):
            assert vec[u] == costs.agent_cost(net, u, DistanceMode.SUM, alpha=1.5, edge_rule=OWNER_PAYS)

    def test_social_cost(self):
        net = path_network(3)
        # distances: 0: 1+2, 1: 1+1, 2: 2+1 => 8
        assert SwapGame("sum").social_cost(net) == 8
        assert SwapGame("max").social_cost(net) == 2 + 1 + 2

    def test_distance_costs_max(self):
        net = path_network(4)
        assert costs.distance_costs(net, DistanceMode.MAX).tolist() == [3, 2, 2, 3]

    def test_single_vertex(self):
        net = Network.from_owned_edges(1, [])
        assert costs.agent_cost(net, 0, DistanceMode.SUM) == 0
        assert costs.agent_cost(net, 0, DistanceMode.MAX) == 0
