"""Property-based equivalence of the incremental distance backend.

After arbitrary random move sequences on random connected networks, the
incremental backend's distance matrices, agent costs and whole
trajectories must *exactly* match a fresh boolean-matmul recompute —
SUM and MAX modes, including disconnecting deletions (``inf`` entries).
The no-memo backend of :mod:`tests.helpers` is the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import DistanceMode
from repro.core.dynamics import run_dynamics
from repro.core.games import AsymmetricSwapGame, GreedyBuyGame
from repro.core.network import Network
from repro.core.policies import FirstUnhappyPolicy, MaxCostPolicy
from repro.graphs import adjacency as adj
from repro.graphs.incremental import IncrementalAPSP, IncrementalBackend
from tests.helpers import NoMemoBackend, network_from_adjacency, random_connected_adjacency
from tests.reference import Reference, state_of


# ---------------------------------------------------------------------------
# random graph + mutation-sequence strategies
# ---------------------------------------------------------------------------


@st.composite
def graph_and_mutations(draw, min_n=3, max_n=12, n_steps=8):
    """A random connected graph plus a sequence of single-vertex edge-set
    mutations (each step toggles 1..3 edges incident to one vertex —
    exactly the footprint of a game move, including disconnecting
    deletions)."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    A = random_connected_adjacency(n, int(rng.integers(0, n)), rng)
    steps = []
    for _ in range(draw(st.integers(1, n_steps))):
        v = draw(st.integers(0, n - 1))
        k = draw(st.integers(1, 3))
        targets = draw(
            st.lists(
                st.integers(0, n - 1).filter(lambda w, v=v: w != v),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        steps.append((v, targets))
    return A, steps


def apply_mutation(A, v, targets):
    for w in targets:
        A[v, w] = A[w, v] = not A[v, w]


# ---------------------------------------------------------------------------
# kernel-level equivalence
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graph_and_mutations())
def test_full_graph_engine_matches_dense_apsp(case):
    A, steps = case
    engine = IncrementalAPSP()
    assert np.array_equal(engine.distances(A), adj.all_pairs_distances(A))
    for v, targets in steps:
        apply_mutation(A, v, targets)
        D = engine.distances(A)
        assert np.array_equal(D, adj.all_pairs_distances(A))





@settings(max_examples=60, deadline=None)
@given(graph_and_mutations())
def test_full_distances_carried_across_the_movers_mutation(case):
    """``D(G')`` derived from the mutated vertex's held ``D(G - v)``
    equals a fresh boolean-matmul APSP, disconnections included, and no
    APSP runs at all."""
    A, steps = case
    net = network_from_adjacency(A, np.random.default_rng(0))
    backend = IncrementalBackend()
    for v, targets in steps:
        backend.deviation_distances(net, v)
        apply_mutation(net.A, v, targets)
        assert np.array_equal(backend.full_distances(net), adj.all_pairs_distances(net.A))
    assert backend._apsp._D is None


def test_disconnecting_deletion_yields_inf():
    """Removing a bridge must produce exact inf blocks, not stale values."""
    # path 0-1-2-3: deleting {1,2} splits it
    A = adj.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    engine = IncrementalAPSP()
    engine.distances(A)
    A[1, 2] = A[2, 1] = False
    D = engine.distances(A)
    expected = adj.all_pairs_distances(A)
    assert np.array_equal(D, expected)
    assert np.isinf(D[0, 3]) and np.isinf(D[1, 2])
    # and reconnecting repairs the inf entries again
    A[0, 3] = A[3, 0] = True
    D = engine.distances(A)
    assert np.array_equal(D, adj.all_pairs_distances(A))
    assert np.isfinite(D).all()



# ---------------------------------------------------------------------------
# game-level equivalence: costs and whole trajectories
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graph_and_mutations(min_n=3, max_n=10), st.sampled_from(["sum", "max"]))
def test_agent_costs_match_dense_after_random_moves(case, mode):
    A, steps = case
    rng = np.random.default_rng(0)
    net = network_from_adjacency(A, rng)
    game = AsymmetricSwapGame(mode)
    backend = IncrementalBackend()
    reference = NoMemoBackend()
    for v, targets in steps:
        apply_mutation(net.A, v, targets)
        # rebuild ownership for toggled edges (mutations bypass Move.apply)
        net.owner &= net.A
        missing = net.A & ~(net.owner | net.owner.T)
        net.owner |= np.triu(missing)
        got = game.cost_vector(net, backend=backend)
        want = game.cost_vector(net, backend=reference)
        assert np.array_equal(got, want)
        for u in range(net.n):
            assert game.current_cost(net, u, backend=backend) == game.current_cost(net, u)


@pytest.mark.parametrize("mode", ["sum", "max"])
@pytest.mark.parametrize("game_kind", ["asg", "gbg"])
def test_dynamics_trajectories_identical_across_backends(mode, game_kind):
    """Whole runs — moves, costs, status — must be bit-identical."""
    rng = np.random.default_rng(99)
    for trial in range(4):
        n = int(rng.integers(6, 16))
        A = random_connected_adjacency(n, int(rng.integers(0, n)), rng)
        net = network_from_adjacency(A, rng)
        if game_kind == "asg":
            game = AsymmetricSwapGame(mode)
        else:
            game = GreedyBuyGame(mode, alpha=float(rng.integers(1, 8)))
        seed = int(rng.integers(1 << 30))
        rd, ri = (
            run_dynamics(game, net, MaxCostPolicy(), seed=seed, max_steps=60 * n,
                         backend=backend)
            for backend in (NoMemoBackend(), None)
        )
        assert rd.status == ri.status
        assert rd.steps == ri.steps
        assert [(r.agent, r.move, r.cost_before, r.cost_after) for r in rd.trajectory] == [
            (r.agent, r.move, r.cost_before, r.cost_after) for r in ri.trajectory
        ]
        assert rd.final.state_key() == ri.final.state_key()


def test_trajectories_identical_at_n64():
    """Equivalence on a network well beyond the hypothesis grids above —
    this must be covered by the tier-1 suite, not only by the
    explicitly-invoked benchmark file."""
    from repro.graphs.generators import random_budget_network

    n = 64
    net = random_budget_network(n, 3, seed=13)
    game = AsymmetricSwapGame("sum")
    rd = run_dynamics(game, net, MaxCostPolicy(), seed=13, max_steps=2 * n,
                      backend=NoMemoBackend())
    ri = run_dynamics(game, net, MaxCostPolicy(), seed=13, max_steps=2 * n)
    assert [(r.agent, r.move, r.cost_before, r.cost_after) for r in rd.trajectory] == [
        (r.agent, r.move, r.cost_before, r.cost_after) for r in ri.trajectory
    ]
    assert rd.final.state_key() == ri.final.state_key()


@settings(max_examples=30, deadline=None)
@given(graph_and_mutations(min_n=3, max_n=10), st.sampled_from(["sum", "max"]))
def test_unchanged_state_is_served_from_memo(case, mode):
    """Re-pricing an unchanged state returns the memoised answers
    themselves; after a real move every agent is priced afresh and
    matches the one-shot pricing."""
    A, steps = case
    rng = np.random.default_rng(1)
    net = network_from_adjacency(A, rng)
    game = AsymmetricSwapGame(mode)
    backend = IncrementalBackend()

    first = [game.best_responses(net, u, backend=backend) for u in range(net.n)]
    again = [game.best_responses(net, u, backend=backend) for u in range(net.n)]
    assert all(a is b for a, b in zip(first, again))

    v, targets = steps[0]
    apply_mutation(net.A, v, targets)
    net.owner &= net.A
    missing = net.A & ~(net.owner | net.owner.T)
    net.owner |= np.triu(missing)
    for u in range(net.n):
        fresh = game.best_responses(net, u, backend=backend)
        oracle = game.best_responses(net, u)
        assert fresh is not first[u]
        assert (fresh.cost_before, fresh.best_cost, fresh.moves) == (
            oracle.cost_before, oracle.best_cost, oracle.moves)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 14),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["sum", "max"]),
    st.sampled_from(["asg", "sg", "gbg"]),
)
def test_batched_collector_matches_reference(n, seed, mode, game_kind):
    """``best_responses`` prices moves in batches and collects them with
    ``_collect_best_batches``; the naive reference model rebuilds every
    post-move network and collects sequentially.  Both must agree
    exactly — costs, tie sets, ordering — on random instances up to
    n = 14, otherwise a batching bug could slip through the
    backend-equivalence suite (every backend shares the batched path)."""
    from repro.core.games import SwapGame

    rng = np.random.default_rng(seed)
    A = random_connected_adjacency(n, int(rng.integers(0, n)), rng)
    net = network_from_adjacency(A, rng)
    if game_kind == "asg":
        game = AsymmetricSwapGame(mode)
    elif game_kind == "sg":
        game = SwapGame(mode)
    else:
        game = GreedyBuyGame(mode, alpha=float(rng.integers(1, 8)))
    ref, state = Reference.of(game), state_of(net)
    for u in range(net.n):
        batched = game.best_responses(net, u)
        assert (batched.cost_before, batched.best_cost, batched.moves) == (
            ref.best_response(state, u))


@pytest.mark.parametrize("game_kind", ["asg", "gbg"])
def test_trajectories_identical_across_all_three_kernels(game_kind):
    """no-memo / memo / bitkernel-backed memo must produce bit-identical
    seeded runs — the word-parallel kernel is a pure performance
    substrate, never a behaviour change."""
    from repro.graphs import bitkernel
    from repro.graphs.generators import random_budget_network, random_m_edge_network

    n = 48
    if game_kind == "asg":
        game = AsymmetricSwapGame("sum")
        net = random_budget_network(n, 3, seed=23)
    else:
        game = GreedyBuyGame("sum", alpha=n / 4.0)
        net = random_m_edge_network(n, 2 * n, seed=23)

    runs = {}
    with bitkernel.forced(False):
        runs["no-memo"] = run_dynamics(
            game, net, MaxCostPolicy(), seed=23, max_steps=3 * n, backend=NoMemoBackend()
        )
        runs["memo"] = run_dynamics(game, net, MaxCostPolicy(), seed=23, max_steps=3 * n)
    with bitkernel.forced(True):
        runs["bitkernel"] = run_dynamics(
            game, net, MaxCostPolicy(), seed=23, max_steps=3 * n
        )
    reference = runs["no-memo"]
    for name, run in runs.items():
        assert run.status == reference.status, name
        assert [(r.agent, r.move, r.cost_before, r.cost_after) for r in run.trajectory] == [
            (r.agent, r.move, r.cost_before, r.cost_after) for r in reference.trajectory
        ], name
        assert run.final.state_key() == reference.final.state_key(), name


def test_deterministic_policy_trajectories_identical():
    rng = np.random.default_rng(5)
    A = random_connected_adjacency(12, 6, rng)
    net = network_from_adjacency(A, rng)
    game = GreedyBuyGame("sum", alpha=3.0)
    rd = run_dynamics(game, net, FirstUnhappyPolicy(), seed=1, backend=NoMemoBackend())
    ri = run_dynamics(game, net, FirstUnhappyPolicy(), seed=1)
    assert [(r.agent, r.move) for r in rd.trajectory] == [
        (r.agent, r.move) for r in ri.trajectory
    ]
    assert rd.final.state_key() == ri.final.state_key()
