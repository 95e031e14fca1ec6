"""Property-based tests for game/dynamics invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import DeviationEvaluator
from repro.core.costs import DistanceMode
from repro.core.games import EPS, AsymmetricSwapGame, GreedyBuyGame, SwapGame
from repro.core.network import Network
from repro.graphs import adjacency as adj
from repro.theory.tree_dynamics import potential_decreases


@st.composite
def owned_networks(draw, min_n=3, max_n=10, connected=True):
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
def owned_trees(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    owned = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        u, v = perm[i], perm[j]
        if draw(st.booleans()):
            u, v = v, u
        owned.append((u, v))
    return Network.from_owned_edges(n, owned)


def _same_cost(a: float, b: float) -> bool:
    """Equality up to EPS, treating two infinities as equal."""
    if np.isinf(a) or np.isinf(b):
        return np.isinf(a) and np.isinf(b)
    return abs(a - b) < 1e-9


@given(owned_networks(), st.sampled_from(["sum", "max"]))
@settings(max_examples=40, deadline=None)
def test_reported_costs_are_real(net, mode):
    """Every (move, cost) pair a game reports must equal the cost obtained
    by actually applying the move (disconnecting moves priced at inf)."""
    game = AsymmetricSwapGame(mode)
    for u in range(net.n):
        for move, cost in game._scored_moves(net, u):
            work = net.copy()
            move.apply(work)
            assert _same_cost(game.current_cost(work, u), cost)


@given(owned_networks(), st.sampled_from(["sum", "max"]),
       st.floats(0.2, 8.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_gbg_improving_moves_strictly_improve(net, mode, alpha):
    game = GreedyBuyGame(mode, alpha=alpha)
    for u in range(net.n):
        cur = game.current_cost(net, u)
        for move, cost in game.improving_moves(net, u):
            assert cost < cur - EPS
            work = net.copy()
            move.apply(work)
            assert game.current_cost(work, u) < cur - EPS


@given(owned_trees(), st.sampled_from(["sum", "max"]))
@settings(max_examples=40, deadline=None)
def test_tree_potentials_decrease_on_every_improving_move(net, mode):
    """Lemma 2.6 / Corollary 3.1 as a property: any improving swap on any
    tree decreases the respective potential."""
    game = SwapGame(mode)
    for u in range(net.n):
        for move, _ in game.improving_moves(net, u):
            after = net.copy()
            move.apply(after)
            assert potential_decreases(net, after, mode)


@given(owned_trees())
@settings(max_examples=30, deadline=None)
def test_max_cost_agent_on_tree_is_leaf_or_happy(net):
    """Observation 2.12: an agent of maximum cost in a tree is a leaf
    (whenever the tree is not already degenerate)."""
    if net.n < 3:
        return
    game = SwapGame("max")
    ecc = adj.eccentricities(net.A)
    worst = np.flatnonzero(ecc == ecc.max())
    deg = adj.degrees(net.A)
    for u in worst:
        assert deg[u] == 1 or not game.is_unhappy(net, int(u))


@given(owned_networks(), st.sampled_from([DistanceMode.SUM, DistanceMode.MAX]))
@settings(max_examples=30, deadline=None)
def test_deviation_evaluator_agrees_with_rebuild(net, mode):
    rng = np.random.default_rng(0)
    u = int(rng.integers(net.n))
    ev = DeviationEvaluator(net, u, mode, adj.distances_without_vertex(net.A, u))
    others = [x for x in range(net.n) if x != u]
    for _ in range(5):
        k = int(rng.integers(1, min(4, len(others)) + 1))
        S = list(rng.choice(others, size=k, replace=False))
        A = net.A.copy()
        A[u, :] = False
        A[:, u] = False
        for w in S:
            A[u, w] = A[w, u] = True
        ref = mode.aggregate(adj.bfs_distances(A, u))
        assert ev.distance_cost(S) == ref


@given(owned_networks(min_n=4, max_n=9))
@settings(max_examples=20, deadline=None)
def test_dynamics_trajectory_costs_monotone_for_mover(net):
    """Along any run, each recorded step's improvement is positive and the
    final state is stable."""
    from repro.core.dynamics import run_dynamics
    from repro.core.policies import FirstUnhappyPolicy

    game = AsymmetricSwapGame("sum")
    res = run_dynamics(game, net, FirstUnhappyPolicy(), seed=0, max_steps=400)
    for rec in res.trajectory:
        assert rec.improvement > 0
    if res.converged:
        assert game.is_stable(res.final)


@given(owned_networks(min_n=4, max_n=8), st.floats(0.5, 6.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_gbg_runs_end_stable_or_exhausted(net, alpha):
    from repro.core.dynamics import run_dynamics
    from repro.core.policies import RandomPolicy

    game = GreedyBuyGame("sum", alpha=alpha)
    res = run_dynamics(game, net, RandomPolicy(), seed=1, max_steps=600)
    if res.converged:
        assert game.is_stable(res.final)
        # stability is mutual: re-running takes zero steps
        res2 = run_dynamics(game, res.final, RandomPolicy(), seed=2)
        assert res2.steps == 0
