"""Tests for SG and ASG: admissibility, improving moves, best responses.

Every vectorized result is cross-validated against the naive reference
model (``tests.reference``) on random networks.
"""

import numpy as np
import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.core.moves import Swap
from repro.graphs.generators import cycle_network, path_network, star_network

from tests.helpers import network_from_adjacency, random_connected_adjacency
from tests.reference import Reference, state_of


@pytest.mark.parametrize("game_cls", [SwapGame, AsymmetricSwapGame])
@pytest.mark.parametrize("mode", ["sum", "max"])
def test_scored_moves_match_reference(game_cls, mode, rng):
    game = game_cls(mode)
    ref = Reference.of(game)
    for trial in range(5):
        A = random_connected_adjacency(9, 4, rng)
        net = network_from_adjacency(A, rng)
        for u in range(net.n):
            assert list(game._scored_moves(net, u)) == ref.scored(state_of(net), u)


@pytest.mark.parametrize("mode", ["sum", "max"])
def test_asg_only_owner_swaps(mode):
    net = path_network(4)  # forward ownership: 3 owns nothing
    game = AsymmetricSwapGame(mode)
    assert game.candidate_moves(net, 3) == []
    # agent 2 owns (2,3): can swap it to 0
    moves = game.candidate_moves(net, 2)
    assert Swap(2, 3, 0) in moves


def test_sg_both_endpoints_may_swap():
    net = path_network(4)
    game = SwapGame("sum")
    # agent 3 owns nothing but may still swap its incident edge (2,3)
    assert Swap(3, 2, 0) in game.candidate_moves(net, 3)


def test_swap_games_ignore_alpha_in_cost():
    net = star_network(5)
    game = SwapGame("sum")
    assert game.current_cost(net, 0) == 4  # no edge-cost term


class TestBestResponses:
    def test_path_endpoint_best_swap_sum(self):
        # On the path 0-1-2-3-4, agent 0's best swaps target the interior
        # vertices 2 and 3 (both give sum 1+2+2+3 = 8).
        net = path_network(5)
        game = SwapGame("sum")
        br = game.best_responses(net, 0)
        assert br.is_improving
        assert {m.new for m in br.moves} == {2, 3}
        assert br.cost_before == 10 and br.best_cost == 8

    def test_path_endpoint_best_swap_max(self):
        # MAX: the endpoint connects to a centre of the remaining path
        # (Observation 2.13): new cost = 1 + ecc of the centre of P4 = 3.
        net = path_network(5)
        game = SwapGame("max")
        br = game.best_responses(net, 0)
        assert br.is_improving
        targets = {m.new for m in br.moves}
        assert targets == {2, 3}  # the two centres of the path 1-2-3-4
        assert br.best_cost == 3

    def test_star_center_is_happy(self):
        net = star_network(6)
        for mode in ("sum", "max"):
            game = SwapGame(mode)
            assert not game.is_unhappy(net, 0)

    def test_star_leaves_happy(self):
        net = star_network(6)
        game = SwapGame("sum")
        assert game.unhappy_agents(net) == []
        assert game.is_stable(net)

    def test_cycle_stability_max(self):
        # C5: every vertex has ecc 2; no single swap improves
        net = cycle_network(5)
        game = SwapGame("max")
        assert game.is_stable(net)

    def test_best_responses_empty_when_happy(self):
        net = star_network(4)
        br = SwapGame("sum").best_responses(net, 0)
        assert not br.is_improving and br.moves == []
        assert br.improvement == 0.0


class TestHostGraph:
    def test_host_blocks_targets(self):
        net = path_network(5)
        # forbid the best target 2 for agent 0
        host = ~np.eye(5, dtype=bool)
        host[0, 2] = host[2, 0] = False
        game = SwapGame("sum", host=host)
        br = game.best_responses(net, 0)
        assert all(m.new != 2 for m in br.moves)

    def test_host_can_freeze_agent(self):
        net = path_network(3)
        host = np.zeros((3, 3), dtype=bool)
        host[0, 1] = host[1, 0] = True
        host[1, 2] = host[2, 1] = True
        game = AsymmetricSwapGame("sum", host=host)
        for u in range(3):
            assert not game.is_unhappy(net, u)


class TestDisconnectionSafety:
    def test_bridge_swap_never_improving(self):
        # Swapping a bridge to the "wrong" side would disconnect; such
        # moves exist as candidates but always cost inf, never improving.
        net = path_network(4)
        game = SwapGame("sum")
        for u in range(4):
            for m, c in game.improving_moves(net, u):
                work = net.copy()
                m.apply(work)
                assert work.is_connected()
