"""The block move enumerator against the naive reference model.

``Game.best_responses_block`` and ``Game.improving_moves_block`` price
the single-edge moves of many ``(network, agent)`` pairs of the SG, ASG,
GBG and coop in one pass over their stacked ``D(G - u)``.  Here every
connected state at n = 4 (and the SG's at n = 5) is priced that way and
checked against :mod:`tests.reference`, which rebuilds each post-move
network by hand and prices it with its own BFS: the cost before, the
best cost, the tie set and its order, and the improving moves in
stream order.  A many-pair block, whose pairs are padded to a common
grid, must also answer exactly what the one-pair calls, which index
their own ``D(G - u)`` unpadded, answer pair by pair.
"""

import numpy as np
import pytest

from repro.core.games import (
    SCAN_BLOCK_CAP,
    AsymmetricSwapGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.network import Network
from repro.graphs import incremental
from repro.obs import metrics as obs_metrics
from repro.statespace import explore

from tests.reference import EPS, Reference, collect_best, enumerate_states


def _network(state) -> Network:
    A = np.zeros((state.n, state.n), dtype=bool)
    O = np.zeros_like(A)
    for a, b in state.owned:
        A[a, b] = A[b, a] = O[a, b] = True
    return Network(A, O)


def _host4():
    """Every pair but {0, 2} and {1, 3}."""
    host = ~np.eye(4, dtype=bool)
    for a, b in ((0, 2), (1, 3)):
        host[a, b] = host[b, a] = False
    return host


GAMES = (
    [SwapGame(m) for m in ("sum", "max")]
    + [AsymmetricSwapGame(m) for m in ("sum", "max")]
    + [GreedyBuyGame(m, a) for m in ("sum", "max") for a in (0.5, 1.0, 2.5)]
    + [CooperativeBuyGame(m, a) for m in ("sum", "max") for a in (0.5, 1.0, 2.5)]
    + [GreedyBuyGame("sum", 1.0, host=_host4())]
)
IDS = [f"{g.name}-{g.mode.value}-{g.alpha:g}" + ("-host" if g.host is not None else "")
       for g in GAMES]


@pytest.fixture(scope="module")
def states4():
    """The reference's connected states at n = 4, by ownership notion."""
    return {own: list(enumerate_states(4, own)) for own in (False, True)}


def _states(game, states4):
    return states4[game.name != "SG"]


def _check_against_reference(game, states, greedy=False):
    ref = Reference.of(game)
    nets = [_network(s) for s in states]
    requests = [(net, u) for net in nets for u in range(net.n)]
    pairs = [(state, u) for state in states for u in range(state.n)]
    improving = list(game.improving_moves_block(requests, greedy=greedy))
    brs = None if greedy else list(game.best_responses_block(requests))
    for i, (state, u) in enumerate(pairs):
        before = ref.cost(state, u)
        scored = ref.scored(state, u, greedy=greedy)
        got = improving[i]
        want = [(m, c) for m, c in scored if c < before - EPS]
        assert [m for m, _ in got] == [m for m, _ in want]
        assert [c for _, c in got] == pytest.approx([c for _, c in want], abs=1e-9)
        if brs is not None:
            best, moves = collect_best(before, scored)
            assert brs[i].agent == u
            assert brs[i].cost_before == pytest.approx(before, abs=1e-9)
            assert brs[i].best_cost == pytest.approx(best, abs=1e-9)
            assert brs[i].moves == moves
    return requests, brs, improving


@pytest.mark.parametrize("game", GAMES, ids=IDS)
def test_every_n4_state_matches_the_reference(game, states4):
    requests, brs, improving = _check_against_reference(game, _states(game, states4))
    # a many-pair block answers what the one-pair calls answer
    for i in range(0, len(requests), 7):
        net, u = requests[i]
        assert game.best_responses(net, u) == brs[i]
        assert game.improving_moves(net, u) == improving[i]
        assert game.greedy_improving_moves(net, u) == improving[i]


def test_bg_greedy_deviations_match_the_reference(states4):
    """The BG's greedy deviations are the GBG's moves, block-priced."""
    _check_against_reference(BuyGame("sum", 2.0), states4[True], greedy=True)


def test_sg_n5_census_states_match_the_reference():
    states = list(enumerate_states(5, False))
    assert len(states) == 728
    _, brs, _ = _check_against_reference(SwapGame("sum"), states)
    happy = [all(not br.moves for br in brs[5 * i:5 * i + 5]) for i in range(len(states))]
    assert sum(happy) == 368


@pytest.mark.parametrize("entries", [4 ** 3 + 1, 3 * 4 ** 3], ids=["pairs2", "pairs3"])
@pytest.mark.parametrize("game", [SwapGame("max"), GreedyBuyGame("sum", 1.0),
                                  CooperativeBuyGame("max", 2.5)], ids=["sg", "gbg", "coop"])
def test_small_blocks_answer_the_same(game, entries, states4, monkeypatch):
    """Blocks of two or of three pairs answer what one block of all does."""
    nets = [_network(s) for s in _states(game, states4)[::5]]
    requests = [(net, u) for net in nets for u in range(net.n)]
    def answers():
        return (list(game.best_responses_block(requests)),
                list(game.improving_moves_block(requests)))

    whole = answers()
    monkeypatch.setattr(incremental, "_PASS_ENTRIES", entries)
    assert answers() == whole


def _builds():
    values = obs_metrics.DEFAULT.snapshot()["repro_deviation_evals_total"]["values"]
    return values.get('{"op": "build"}', 0.0)


def test_one_evaluator_build_per_priced_pair(monkeypatch):
    """``c_G(u)`` is priced from the evaluator the moves use: the SG n = 5
    census builds one per agent-state, and so does a one-pair call."""
    monkeypatch.setattr(obs_metrics.DEFAULT, "enabled", True)
    before = _builds()
    explore(SwapGame("sum"), n=5)
    assert _builds() - before == 3640
    net = _network(next(enumerate_states(5, True)))
    for game in (SwapGame("sum"), GreedyBuyGame("sum", 1.0), BuyGame("sum", 1.0)):
        before = _builds()
        game.best_responses(net, 0)
        game.improving_moves(net, 1)
        assert _builds() - before == 2


def test_block_answers_are_priced_a_block_at_a_time(monkeypatch):
    """The block entry points are lazy: reading the first answer prices
    one block of ``SCAN_BLOCK_CAP`` pairs, not every request."""
    monkeypatch.setattr(obs_metrics.DEFAULT, "enabled", True)
    nets = [_network(s) for s in list(enumerate_states(5, False))[:20]]
    requests = [(net, u) for net in nets for u in range(net.n)]
    for answers in (SwapGame("sum").best_responses_block(requests),
                    GreedyBuyGame("sum", 1.0).improving_moves_block(requests)):
        before = _builds()
        next(answers)
        assert _builds() - before == SCAN_BLOCK_CAP
        assert len(list(answers)) == len(requests) - 1
        assert _builds() - before == len(requests)
