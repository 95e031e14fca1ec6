"""Edge cases and failure injection across the public API.

Degenerate sizes (n = 1, 2), disconnected starts, frozen hosts, zero
and extreme alphas, exhausted step budgets, and the documented
quickstart snippet.
"""

import numpy as np
import pytest

from repro import (
    AsymmetricSwapGame,
    BilateralGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    MaxCostPolicy,
    Network,
    RandomPolicy,
    SwapGame,
    random_budget_network,
    run_dynamics,
)
from repro.graphs.generators import path_network, star_network


class TestDegenerateSizes:
    def test_single_agent(self):
        net = Network.from_owned_edges(1, [])
        for game in (SwapGame("sum"), GreedyBuyGame("max", alpha=1.0)):
            assert game.is_stable(net)
            res = run_dynamics(game, net, MaxCostPolicy(), seed=0)
            assert res.converged and res.steps == 0

    def test_two_agents_connected(self):
        net = Network.from_owned_edges(2, [(0, 1)])
        assert SwapGame("sum").is_stable(net)
        # with high alpha, the owner still keeps the bridge (deleting
        # disconnects -> infinite distance cost)
        assert GreedyBuyGame("sum", alpha=100.0).is_stable(net)

    def test_two_agents_disconnected_buy_game(self):
        net = Network.from_owned_edges(2, [])
        game = GreedyBuyGame("sum", alpha=3.0)
        # both agents face infinite cost; buying the edge is improving
        assert not game.is_stable(net)
        res = run_dynamics(game, net, RandomPolicy(), seed=0)
        assert res.converged and res.final.m == 1


class TestDisconnectedStarts:
    def test_swap_games_cannot_reconnect_components(self):
        # two components; swaps preserve per-agent degree, and every swap
        # by a component-internal agent keeps cost infinite -> no strict
        # improvement is possible, the process stalls immediately
        net = Network.from_owned_edges(4, [(0, 1), (2, 3)])
        game = SwapGame("sum")
        res = run_dynamics(game, net, MaxCostPolicy(), seed=0, max_steps=10)
        assert res.steps == 0  # stable-by-hopelessness

    def test_gbg_reconnects(self):
        net = Network.from_owned_edges(4, [(0, 1), (2, 3)])
        game = GreedyBuyGame("sum", alpha=1.0)
        res = run_dynamics(game, net, RandomPolicy(), seed=1)
        assert res.converged
        assert res.final.is_connected()


class TestHostFreezing:
    def test_host_equal_to_current_graph_freezes_swaps(self):
        net = path_network(5)
        host = net.A.copy()
        game = SwapGame("sum", host=host)
        assert game.is_stable(net)

    def test_gbg_host_blocks_buys_not_deletes(self):
        # triangle: host = current edges; deletes remain possible
        net = Network.from_owned_edges(3, [(0, 1), (1, 2), (2, 0)])
        game = GreedyBuyGame("sum", alpha=10.0, host=net.A.copy())
        br = game.best_responses(net, 0)
        assert br.is_improving
        assert all(type(m).__name__ == "Delete" for m in br.moves)


class TestAlphaExtremes:
    def test_alpha_zero_gbg_buys_everything(self):
        net = path_network(5)
        game = GreedyBuyGame("sum", alpha=0.0)
        res = run_dynamics(game, net, RandomPolicy(), seed=2)
        assert res.converged
        # with free edges every agent ends at distance 1 from everyone
        from repro.graphs import adjacency as adj

        assert adj.diameter(res.final.A) == 1

    def test_huge_alpha_prunes_to_tree(self):
        from repro.graphs.generators import random_m_edge_network
        from repro.graphs.properties import is_tree

        net = random_m_edge_network(10, 25, seed=3)
        game = GreedyBuyGame("sum", alpha=1000.0)
        res = run_dynamics(game, net, RandomPolicy(), seed=3)
        assert res.converged
        assert is_tree(res.final.A)  # every redundant edge deleted

    def test_bilateral_alpha_zero_all_consent(self):
        net = path_network(5)
        game = BilateralGame("sum", alpha=0.0)
        res = run_dynamics(game, net, RandomPolicy(), seed=4, max_steps=200)
        assert res.converged
        from repro.graphs import adjacency as adj

        assert adj.diameter(res.final.A) == 1

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -3.0])
    @pytest.mark.parametrize("make", [
        lambda a: GreedyBuyGame("sum", alpha=a),
        lambda a: BuyGame("max", alpha=a),
        lambda a: BilateralGame("sum", alpha=a),
        lambda a: CooperativeBuyGame("sum", alpha=a),
    ])
    def test_degenerate_alpha_rejected_by_constructors(self, make, alpha):
        """A NaN price would make every comparison false: every agent
        happy and every network stable."""
        with pytest.raises(ValueError, match="alpha"):
            make(alpha)

    @pytest.mark.parametrize("spec", ["nan", "inf", "-3"])
    def test_degenerate_alpha_rejected_through_alpha_specs(self, spec):
        from repro.registry import REGISTRY

        with pytest.raises(ValueError, match="alpha"):
            REGISTRY.build("game", "gbg", {"mode": "sum", "alpha": spec}, n=10)


class TestStepBudget:
    def test_exhaustion_reports_partial_trajectory(self):
        net = path_network(12)
        res = run_dynamics(
            SwapGame("sum"), net, MaxCostPolicy(), seed=0, max_steps=2
        )
        assert res.status == "exhausted"
        assert len(res.trajectory) == 2

    def test_zero_budget(self):
        net = path_network(6)
        res = run_dynamics(SwapGame("sum"), net, MaxCostPolicy(), seed=0, max_steps=0)
        assert res.status == "exhausted" and res.steps == 0


class TestReadmeSnippet:
    def test_quickstart_snippet(self):
        net = random_budget_network(n=30, budget=2, seed=7)
        game = AsymmetricSwapGame("sum")
        result = run_dynamics(game, net, MaxCostPolicy(), seed=7)
        assert result.converged
        assert result.steps < 5 * 30
        assert game.is_stable(result.final)


class TestLazyImports:
    def test_graphs_getattr(self):
        import repro.graphs as g

        assert hasattr(g.generators, "random_budget_network")
        with pytest.raises(AttributeError):
            g.nonexistent_module

    def test_instances_getattr(self):
        import repro.instances as inst

        assert hasattr(inst.figures, "ALL_INSTANCES")
        assert hasattr(inst.verify, "verify_instance")
        with pytest.raises(AttributeError):
            inst.nope
