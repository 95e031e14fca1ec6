"""Every game against the naive reference model of ``tests.reference``.

The reference rebuilds each post-move network from the definitions and
prices it with its own BFS, so these tests check the strategy spaces,
the vectorised pricing and the best-response collector against code
that shares none of them.  Networks are small (n <= 7) and edge prices
small integers, so exact cost ties are frequent and the tie rule and
the canonical move order are exercised on every example.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.games import (
    AsymmetricSwapGame,
    BilateralGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.moves import StrategyChange
from repro.core.network import Network
from repro.graphs.incremental import IncrementalBackend
from repro.statespace.encode import state_key
from repro.statespace.explore import explore

from tests.helpers import NoMemoBackend
from tests.reference import Reference, State, state_of

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "reference.py"


def test_reference_is_independent_of_the_code_under_test():
    tree = ast.parse(REFERENCE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    forbidden = ("repro.core.games", "repro.core.best_response", "repro.graphs")
    assert not [m for m in imported if m and m.startswith(forbidden)]
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not called & {"current_cost", "apply"}


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


@st.composite
def networks(draw, min_n=2, max_n=7):
    """A connected network with random ownership, and a random host
    graph (or ``None``), which may leave out edges the network has."""
    n = draw(st.integers(min_n, max_n))
    A = np.zeros((n, n), dtype=bool)
    for v in range(1, n):  # a random spanning tree keeps it connected
        u = draw(st.integers(0, v - 1))
        A[u, v] = A[v, u] = True
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for (u, v), extra in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                  max_size=len(pairs)))):
        if extra and draw(st.integers(0, 2)) == 0:
            A[u, v] = A[v, u] = True
    O = np.zeros_like(A)
    for u, v in pairs:
        if A[u, v]:
            if draw(st.booleans()):
                O[u, v] = True
            else:
                O[v, u] = True
    host = None
    if draw(st.booleans()):
        host = np.zeros_like(A)
        for u, v in pairs:
            if draw(st.integers(0, 3)) > 0:
                host[u, v] = host[v, u] = True
    return Network(A, O), host


def _game(kind, mode, alpha, host, max_swaps, owner_share):
    if kind == "sg":
        return SwapGame(mode, host=host)
    if kind == "asg":
        return AsymmetricSwapGame(mode, host=host)
    if kind == "multi-sg":
        return SwapGame(mode, host=host, max_swaps=max_swaps)
    if kind == "multi-asg":
        return AsymmetricSwapGame(mode, host=host, max_swaps=max_swaps)
    if kind == "gbg":
        return GreedyBuyGame(mode, alpha=alpha, host=host)
    if kind == "coop":
        return CooperativeBuyGame(mode, alpha=alpha, host=host, owner_share=owner_share)
    if kind == "bg":
        return BuyGame(mode, alpha=alpha, host=host)
    return BilateralGame(mode, alpha=alpha, host=host)


KINDS = ["sg", "asg", "multi-sg", "multi-asg", "gbg", "coop", "bg", "bilateral"]


def _same_scored(got, want):
    assert [m for m, _ in got] == [m for m, _ in want]
    assert [c for _, c in got] == pytest.approx([c for _, c in want], abs=1e-9)


BACKENDS = {"none": lambda: None, "no-memo": NoMemoBackend, "memo": IncrementalBackend}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(
    instance=networks(),
    mode=st.sampled_from(["sum", "max"]),
    alpha=st.integers(1, 4),
    max_swaps=st.integers(2, 3),
    owner_share=st.sampled_from([0.5, 0.25, 1.0]),
    backend=st.sampled_from(sorted(BACKENDS)),
)
def test_game_matches_reference(kind, instance, mode, alpha, max_swaps, owner_share, backend):
    """Costs (``current_cost``, ``cost_vector`` and ``evaluate_move``
    over every deviation, the mover's and a bystander's), move set,
    improving and greedy-improving lists (in order), best responses
    (cost, tie set and order) and both stability notions."""
    net, host = instance
    game = _game(kind, mode, float(alpha), host, max_swaps, owner_share)
    ref = Reference.of(game)
    state = state_of(net)
    engine = BACKENDS[backend]()
    costs = game.cost_vector(net, backend=engine)
    for u in range(net.n):
        want = ref.cost(state, u)
        assert game.current_cost(net, u, backend=engine) == want
        assert costs[u] == want
        bystander = (u + 1) % net.n
        for move, after in ref.deviations(state, u):
            assert game.evaluate_move(net, u, move, backend=engine) == ref.cost(after, u)
            assert game.evaluate_move(net, bystander, move, backend=engine) == ref.cost(
                after, bystander)
        _same_scored(list(game._scored_moves(net, u)), ref.scored(state, u))
        _same_scored(game.improving_moves(net, u, backend=engine), ref.improving(state, u))
        _same_scored(game.greedy_improving_moves(net, u, backend=engine),
                     ref.improving(state, u, greedy=True))
        br = game.best_responses(net, u, backend=engine)
        before, best, moves = ref.best_response(state, u)
        assert br.cost_before == pytest.approx(before, abs=1e-9)
        assert br.best_cost == pytest.approx(best, abs=1e-9)
        assert br.moves == moves
    assert game.is_stable(net) == ref.is_stable(state)
    assert game.is_stable(net, backend=engine) == ref.is_stable(state)
    assert game.is_greedy_stable(net, backend=engine) == ref.is_stable(state, greedy=True)


# ---------------------------------------------------------------------------
# disagreements the reference found
# ---------------------------------------------------------------------------


def _path_outside_host():
    """The path 0-1-2 under a host graph without its edge {0, 1}."""
    net = Network.from_owned_edges(3, [(0, 1), (1, 2)])
    host = ~np.eye(3, dtype=bool)
    host[0, 1] = host[1, 0] = False
    return net, host


def test_bg_may_keep_an_owned_edge_outside_the_host_graph():
    """A host graph restricts the edges a move *creates*; keeping one
    creates nothing.  The BG once dropped such targets from its pool."""
    net, host = _path_outside_host()
    game = BuyGame("sum", alpha=1.0, host=host)
    moves = game.candidate_moves(net, 0)
    assert StrategyChange(0, frozenset({1, 2})) in moves
    assert list(game._scored_moves(net, 0)) == Reference.of(game).scored(state_of(net), 0)


def test_bilateral_may_keep_a_neighbour_outside_the_host_graph():
    """Same rule for the bilateral game: keeping the edge {0, 1} and
    adding {0, 2} is a feasible improving move of agent 0."""
    net, host = _path_outside_host()
    game = BilateralGame("sum", alpha=1.0, host=host)
    assert game.improving_moves(net, 0) == [
        (StrategyChange(0, frozenset({1, 2}), bilateral=True), 3.0)]


# ---------------------------------------------------------------------------
# censuses: the reference's own state enumeration, pinned
# ---------------------------------------------------------------------------


def _topology(state: State):
    return frozenset(frozenset(e) for e in state.owned)


def _explored(game, n, moves="best"):
    """The explorer's equilibria as reference states."""
    report = explore(game, n=n, moves=moves)
    graph, sinks = report.graph, set(report.equilibria)
    return report.n_states, {state_of(graph.network(i)) for i in range(graph.n_states)
                             if graph.keys[i].hex() in sinks}


@pytest.mark.parametrize("game", [SwapGame("sum"), AsymmetricSwapGame("sum"),
                                  GreedyBuyGame("sum", alpha=2.0)],
                         ids=["sg", "asg", "gbg-a2"])
def test_equilibrium_keys_match_reference(game):
    """The explorer's equilibrium *key set* at n = 4 is exactly the set
    of states the reference finds stable, keyed under the reference's
    own state notion — so the census is checked against code that does
    not share ``Game.is_stable`` (which ``verify_sinks`` relies on)."""
    ref = Reference.of(game)
    _, stable = ref.census(4)
    with_ownership = ref.kind not in ("sg", "bilateral")
    want = {state_key(Network.from_owned_edges(s.n, sorted(s.owned)),
                      with_ownership=with_ownership).hex() for s in stable}
    assert want and set(explore(game, n=4).equilibria) == want


def test_census_sg_n4():
    """SG (SUM), n = 4: 26 equilibria among the 38 connected graphs."""
    game = SwapGame("sum")
    states, stable = Reference.of(game).census(4)
    assert (states, len(stable)) == (38, 26)
    explored_states, explored = _explored(game, 4)
    assert explored_states == states
    assert {_topology(s) for s in explored} == {_topology(s) for s in stable}


def test_census_bg_n4_ne_inside_ge():
    """BG (SUM, alpha = 2), n = 4: 62 NE strictly inside 104 GE."""
    game = BuyGame("sum", alpha=2.0)
    ref = Reference.of(game)
    states, ne = ref.census(4)
    _, ge = ref.census(4, greedy=True)
    assert (states, len(ne), len(ge)) == (624, 62, 104)
    assert set(ne) < set(ge)
    assert _explored(game, 4) == (states, set(ne))
    assert _explored(game, 4, moves="greedy") == (states, set(ge))


def test_census_coop_n4():
    """Cooperative GBG (SUM, alpha = 2), n = 4: 528 equilibria in 624 states."""
    game = CooperativeBuyGame("sum", alpha=2.0)
    states, stable = Reference.of(game).census(4)
    assert (states, len(stable)) == (624, 528)
    assert _explored(game, 4) == (states, set(stable))


def test_census_asg_n4():
    """ASG (SUM), n = 4: 552 equilibria among 624 owned networks."""
    game = AsymmetricSwapGame("sum")
    states, stable = Reference.of(game).census(4)
    assert (states, len(stable)) == (624, 552)
    assert _explored(game, 4) == (states, set(stable))


def test_census_sg_n5():
    """SG (SUM), n = 5: 368 equilibria among the 728 connected graphs."""
    game = SwapGame("sum")
    states, stable = Reference.of(game).census(5)
    assert (states, len(stable)) == (728, 368)
    explored_states, explored = _explored(game, 5)
    assert explored_states == states
    assert {_topology(s) for s in explored} == {_topology(s) for s in stable}


def _is_tree(state: State) -> bool:
    """Reference states are connected: a tree is one with n - 1 edges."""
    return len(state.owned) == state.n - 1


@pytest.mark.parametrize("alpha", [3.5, 4.0, 6.0])
def test_bg_equilibria_are_trees_above_4n_minus_13(alpha):
    """Bilò & Lenzner, *On the Tree Conjecture for the Network Creation
    Game*: for alpha > 4n - 13 every NE of the SUM buy game is a tree.
    At n = 4 that is alpha > 3: the 56 equilibria the reference finds
    are all trees, and they are exactly the explorer's."""
    game = BuyGame("sum", alpha=alpha)
    states, ne = Reference.of(game).census(4)
    assert len(ne) == 56 and all(_is_tree(s) for s in ne)
    assert _explored(game, 4) == (states, set(ne))


def test_bg_equilibria_below_the_tree_bound_include_non_trees():
    """The contrast that shows the tree check can fail: at alpha = 2
    (below 4n - 13 = 3) 6 of the 62 equilibria contain a cycle."""
    _, ne = Reference.of(BuyGame("sum", alpha=2.0)).census(4)
    assert (len(ne), sum(not _is_tree(s) for s in ne)) == (62, 6)
