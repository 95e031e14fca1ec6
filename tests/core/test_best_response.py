"""Tests for the D(G-u) deviation evaluator against brute-force rebuilds.

The evaluator prices a hypothetical neighbour set of agent ``u`` via
``1 + min_w D_{G-u}[w, .]``; these tests rebuild the modified graph and
run a fresh BFS to confirm every price.
"""

import numpy as np
import pytest

from repro.core.best_response import DeviationEvaluator
from repro.core.costs import DistanceMode
from repro.core.network import Network
from repro.graphs import adjacency as adj

from tests.helpers import network_from_adjacency, random_connected_adjacency


def brute_force_distance_cost(net, u, new_neighbors, mode):
    """Rebuild the graph with u's neighbour set replaced, run BFS."""
    A = net.A.copy()
    A[u, :] = False
    A[:, u] = False
    for w in new_neighbors:
        A[u, w] = A[w, u] = True
    dist = adj.bfs_distances(A, u)
    if net.n == 1:
        return 0.0
    return mode.aggregate(dist)


@pytest.mark.parametrize("mode", [DistanceMode.SUM, DistanceMode.MAX])
@pytest.mark.parametrize("n,extra", [(6, 2), (10, 6), (14, 12)])
def test_distance_cost_matches_brute_force(mode, n, extra, rng):
    A = random_connected_adjacency(n, extra, rng)
    net = network_from_adjacency(A, rng)
    for u in range(0, n, 2):
        ev = DeviationEvaluator(net, u, mode, adj.distances_without_vertex(net.A, u))
        for _ in range(12):
            k = int(rng.integers(1, 4))
            S = rng.choice([x for x in range(n) if x != u], size=k, replace=False)
            ours = ev.distance_cost(S)
            theirs = brute_force_distance_cost(net, u, S, mode)
            assert ours == theirs


@pytest.mark.parametrize("mode", [DistanceMode.SUM, DistanceMode.MAX])
def test_batch_costs_match_scalar(mode, rng):
    A = random_connected_adjacency(10, 5, rng)
    net = network_from_adjacency(A, rng)
    u = 3
    ev = DeviationEvaluator(net, u, mode, adj.distances_without_vertex(net.A, u))
    kept = [x for x in net.neighbors(u).tolist() if x != net.neighbors(u).tolist()[0]]
    base = ev.base_vector(kept)
    candidates = [x for x in range(10) if x != u and x not in net.neighbors(u)]
    batch = ev.batch_costs(base, candidates)
    for w, got in zip(candidates, batch):
        assert got == ev.distance_cost(kept + [w])


@pytest.mark.parametrize("mode", [DistanceMode.SUM, DistanceMode.MAX])
def test_stacked_bases_match_one_base_at_a_time(mode, rng):
    A = random_connected_adjacency(12, 6, rng)
    net = network_from_adjacency(A, rng)
    u = 4
    ev = DeviationEvaluator(net, u, mode, adj.distances_without_vertex(net.A, u))
    nbrs = net.neighbors(u)
    bases = np.stack([ev.base_vector(nbrs)]
                     + [ev.base_vector(nbrs[nbrs != v]) for v in nbrs])
    candidates = [x for x in range(12) if x != u and x not in nbrs]
    stacked = ev.batch_costs(bases, candidates)
    assert stacked.shape == (len(bases), len(candidates))
    for row, base in zip(stacked, bases):
        assert np.array_equal(row, ev.batch_costs(base, candidates))
    assert ev.batch_costs(bases, []).shape == (len(bases), 0)


def test_empty_strategy_is_disconnected(rng):
    A = random_connected_adjacency(6, 2, rng)
    net = network_from_adjacency(A, rng)
    ev = DeviationEvaluator(net, 0, DistanceMode.SUM, adj.distances_without_vertex(net.A, 0))
    assert np.isinf(ev.distance_cost([]))


def test_disconnecting_strategy_is_infinite():
    # path 0-1-2-3: u=1 connecting only to 0 cuts off {2,3}
    net = Network.from_owned_edges(4, [(0, 1), (1, 2), (2, 3)])
    ev = DeviationEvaluator(net, 1, DistanceMode.SUM, adj.distances_without_vertex(net.A, 1))
    assert np.isinf(ev.distance_cost([0]))
    assert np.isfinite(ev.distance_cost([0, 2]))


def test_base_vector_empty_is_inf():
    net = Network.from_owned_edges(3, [(0, 1), (1, 2)])
    ev = DeviationEvaluator(net, 0, DistanceMode.SUM, adj.distances_without_vertex(net.A, 0))
    assert np.isinf(ev.base_vector([])).all()


def test_batch_empty_candidates():
    net = Network.from_owned_edges(3, [(0, 1), (1, 2)])
    ev = DeviationEvaluator(net, 0, DistanceMode.SUM, adj.distances_without_vertex(net.A, 0))
    out = ev.batch_costs(ev.base_vector([1]), [])
    assert out.size == 0


def test_single_vertex_graph():
    net = Network.from_owned_edges(1, [])
    ev = DeviationEvaluator(net, 0, DistanceMode.MAX, adj.distances_without_vertex(net.A, 0))
    assert ev.distance_cost([]) == 0.0
