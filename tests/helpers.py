"""Shared test helpers: random network builders and the no-memo
distance backend used across the suite.

Kept in a plain importable module (not ``conftest.py``) so every test
package can ``from tests.helpers import ...`` — relative imports from a
conftest do not work under pytest's test-module import machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network
from repro.graphs import adjacency as adj

__all__ = ["random_connected_adjacency", "network_from_adjacency", "NoMemoBackend"]


def random_connected_adjacency(n: int, extra_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Random connected graph: random tree plus ``extra_edges`` chords."""
    A = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for i in range(1, n):
        u = order[i]
        v = order[rng.integers(i)]
        A[u, v] = A[v, u] = True
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        u, v = rng.integers(n), rng.integers(n)
        attempts += 1
        if u != v and not A[u, v]:
            A[u, v] = A[v, u] = True
            added += 1
    return A


def network_from_adjacency(A: np.ndarray, rng: np.random.Generator) -> Network:
    """Wrap an adjacency matrix with random per-edge ownership."""
    n = A.shape[0]
    O = np.zeros_like(A)
    iu, iv = np.nonzero(np.triu(A, 1))
    for u, v in zip(iu.tolist(), iv.tolist()):
        if rng.integers(2):
            O[u, v] = True
        else:
            O[v, u] = True
    return Network(A.copy(), O)


class NoMemoBackend:
    """A distance backend that remembers nothing.

    Every query is a from-scratch boolean-matmul APSP
    (:func:`repro.graphs.adjacency.all_pairs_distances`); announced
    blocks are ignored and no best response is memoised.  Runs priced
    through it are the reference the per-state memo
    (:class:`~repro.graphs.incremental.IncrementalBackend`) must
    reproduce move for move.
    """

    def full_distances(self, net) -> np.ndarray:
        return adj.all_pairs_distances(net.A)

    def deviation_distances(self, net, u: int) -> np.ndarray:
        return adj.distances_without_vertex(net.A, u)

    def prefetch_deviations(self, requests) -> None:
        pass

    def cached_best_response(self, game, net, u: int):
        return None

    def store_best_response(self, game, net, u: int, br) -> None:
        pass
