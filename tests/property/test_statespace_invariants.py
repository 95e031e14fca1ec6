"""Property-based invariants of the statespace explorer.

The ISSUE's contract: for random small instances (n <= 5),

* the explorer's sink set equals a brute-force
  ``analysis.equilibria.is_stable`` scan over **all reachable states**;
* every reported cycle replays step-by-step as strictly improving,
  admissible moves closing back on its first state;
* the encoding round-trips losslessly for every generated state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.equilibria import is_stable
from repro.core.games import EPS, AsymmetricSwapGame, GreedyBuyGame, SwapGame
from repro.core.moves import move_from_dict
from repro.core.network import Network
from repro.statespace import explore
from repro.statespace.encode import decode_state, encode_state, state_key
from repro.statespace.expand import ownership_matters
from tests.helpers import NoMemoBackend


@st.composite
def small_networks(draw, min_n=3, max_n=5):
    """Random connected owned networks with n <= 5."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    owned = []
    present = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        u, v = perm[i], perm[j]
        if draw(st.booleans()):
            u, v = v, u
        owned.append((u, v))
        present.add((min(u, v), max(u, v)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(all_pairs), max_size=n)):
        if (u, v) in present:
            continue
        present.add((u, v))
        owned.append((u, v) if draw(st.booleans()) else (v, u))
    return Network.from_owned_edges(n, owned)


@st.composite
def small_games(draw):
    kind = draw(st.sampled_from(["sg", "asg", "gbg"]))
    mode = draw(st.sampled_from(["sum", "max"]))
    if kind == "sg":
        return SwapGame(mode)
    if kind == "asg":
        return AsymmetricSwapGame(mode)
    alpha = draw(st.sampled_from([0.4, 1.0, 2.5]))
    return GreedyBuyGame(mode, alpha=alpha)


@st.composite
def explorable_instances(draw):
    """A (network, game, moveset) triple whose reachable state space fits
    under the 50,000-state cap, so an exploration from it always completes.

    A swap keeps the edge count: on 5 vertices that is at most
    ``max_m C(10, m) 2^m = 15,360`` owned networks.  A GBG buys and
    deletes edges, and there are 55,248 connected owned networks on 5
    vertices.  Under *improving* moves at alpha 0.4 or 2.5 it can reach
    most of them (a 5-vertex path in the MAX-GBG at alpha 0.4 takes
    about 100 s to hit the cap), so those GBG draws at n = 5 take best
    responses.  Over 150 random 5-vertex starts per alpha and mode, the
    largest best-response component had 1,955 states, and the largest
    improving-move component at alpha 1.0 had 208.
    """
    game = draw(small_games())
    net = draw(small_networks())
    moves = draw(st.sampled_from(["best", "improving"]))
    if isinstance(game, GreedyBuyGame) and net.n == 5 and game.alpha != 1.0:
        moves = "best"
    return net, game, moves


@given(explorable_instances())
@settings(max_examples=25, deadline=None)
def test_sinks_equal_brute_force_over_reachable_states(instance):
    """Explorer sinks == brute-force is_stable over every reachable state."""
    net, game, moves = instance
    report = explore(game, start=net, moves=moves, max_states=50_000)
    assert report.complete and not report.truncated
    graph = report.graph
    brute = {
        graph.keys[i].hex()
        for i in range(graph.n_states)
        if is_stable(game, graph.network(i))
    }
    assert set(report.equilibria) == brute


@given(small_networks(), small_games())
@settings(max_examples=25, deadline=None)
def test_cycles_replay_as_strictly_improving_moves(net, game):
    """Every reported cycle witness replays move by move, each strictly
    improving for its mover, and closes on its first state."""
    report = explore(game, start=net, max_states=50_000)
    own = ownership_matters(game)
    graph = report.graph
    for cycle in report.cycles:
        witness = cycle["witness"]
        assert witness, "a non-trivial SCC must carry a witness cycle"
        assert witness[-1]["to"] == witness[0]["from"]
        for hop in witness:
            state = graph.network(graph.index[bytes.fromhex(hop["from"])])
            move = move_from_dict(hop["move"])
            u = hop["agent"]
            before = game.current_cost(state, u)
            after = game.evaluate_move(state, u, move)
            assert after < before - EPS
            move.apply(state)
            assert state_key(state, own).hex() == hop["to"]
            assert hop["to"] in cycle["states"]


@given(small_networks(), small_games())
@settings(max_examples=25, deadline=None)
def test_every_explored_state_round_trips_the_encoding(net, game):
    report = explore(game, start=net, max_states=50_000)
    graph = report.graph
    for i in range(graph.n_states):
        decoded = graph.network(i)
        assert encode_state(decoded) == graph.blobs[i]
        assert np.array_equal(decoded.A, decoded.owner | decoded.owner.T)


@given(small_networks(), st.sampled_from(["sum", "max"]))
@settings(max_examples=20, deadline=None)
def test_backend_equivalence_on_random_instances(net, mode):
    """Pricing with and without the memo explores bit-identical graphs."""
    game = AsymmetricSwapGame(mode)
    no_memo = explore(game, start=net, backend=NoMemoBackend())
    memo = explore(game, start=net)
    assert no_memo.json_bytes() == memo.json_bytes()


@given(small_networks(min_n=3, max_n=4), small_games())
@settings(max_examples=15, deadline=None)
def test_trajectories_stay_inside_the_explored_graph(net, game):
    """A sampled best-response run only ever visits explored states and
    ends in a reported equilibrium when it converges."""
    from repro.core.dynamics import run_dynamics
    from repro.core.policies import FirstUnhappyPolicy

    report = explore(game, start=net, max_states=50_000)
    own = ownership_matters(game)
    result = run_dynamics(
        game, net, FirstUnhappyPolicy(), seed=0, move_tie_break="first",
        detect_cycles=True, max_steps=200,
    )
    replay = net.copy()
    assert state_key(replay, own).hex() not in report.equilibria or result.steps == 0
    for rec in result.trajectory:
        rec.move.apply(replay)
        assert state_key(replay, own) in report.graph.index
    if result.converged:
        assert state_key(replay, own).hex() in report.equilibria
