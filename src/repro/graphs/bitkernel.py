"""Bit-packed (word-parallel) distance kernel.

BFS state is packed into ``uint64`` words so that one bitwise AND/OR
advances 64 breadth-first searches (or 64 vertices) at once, replacing
the byte-per-vertex boolean matmuls / float32 GEMMs of
:mod:`.adjacency`.

Two packings are used:

* **Single-source** (:func:`bfs_distances`): adjacency rows are packed
  into ``(n, ceil(n/64))`` uint64 words; one frontier expansion is an
  OR-reduction of the packed rows of the frontier vertices.
* **Multi-source** (:func:`bfs_distances_multi`,
  :func:`all_pairs_distances`): the ``k`` simultaneous BFS frontiers are
  packed *across sources* — ``F[v]`` holds bit ``s`` iff vertex ``v`` is
  in source ``s``'s frontier.  One layer for all ``k`` searches is::

      next[v] = OR_{u in N(v)} F[u]      (then & ~visited [& alive])

  implemented as one gather of ``F`` along a precomputed flat neighbour
  list plus a single segmented ``bitwise_or.reduceat`` — two C calls per
  layer, no per-layer ``nonzero``/``unpackbits`` of the frontier, and no
  dense matrix product.  Distances fall out of the counting identity
  ``dist[v, s] = #{layers d : v not yet visited by s after layer d}``,
  accumulated with one ``unpackbits`` + add per layer.

Total APSP work is ``O(diam * m * n / 64)`` word-ops for ``m`` edges —
on the paper's sparse dynamics graphs this overtakes the float32-GEMM
layering (``O(diam * n^3)`` flops) from roughly ``n >= MIN_N`` and is an
order of magnitude ahead by n ≈ 500.

Everything here returns *bit-identical* results to the dense kernels —
all are exact unit-weight BFS — so the routing in :mod:`.adjacency` is a
pure performance decision.  The classic boolean-matmul
:func:`adjacency.all_pairs_distances` stays the reference oracle and is
never routed here.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MIN_N",
    "enabled_for",
    "enabled_multi",
    "enabled_block",
    "forced",
    "pack_rows",
    "unpack_rows",
    "bfs_distances",
    "bfs_distances_multi",
    "all_pairs_distances",
    "deviation_distances_block",
    "is_connected_without_vertex",
]

#: below this many vertices the packing/CSR overhead outweighs the
#: word-parallel win over the BLAS-layered kernel (measured in
#: ``benchmarks/bench_kernel.py``).
MIN_N = 96

#: tri-state test/benchmark override: ``None`` = size heuristic,
#: ``True``/``False`` = force on/off.
_FORCE: Optional[bool] = None

#: the uint64 view of the packed uint8 buffer assumes little-endian words.
_LITTLE_ENDIAN = sys.byteorder == "little"


def enabled_for(n: int) -> bool:
    """Whether :mod:`.adjacency` should route a size-``n`` query here."""
    if _FORCE is not None:
        return _FORCE
    return _LITTLE_ENDIAN and n >= MIN_N


def enabled_multi(n: int, k: int) -> bool:
    """Routing heuristic for a ``k``-source BFS on ``n`` vertices.

    The word-parallel cost is nearly flat in ``k`` (the CSR gather per
    layer is the fixed cost) while the GEMM layering scales linearly, so
    the crossover sits near ``k ≈ 6144 / n`` sources, never below 16
    (measured in ``benchmarks/bench_kernel.py`` on the paper's sparse
    dynamics graphs).
    """
    if _FORCE is not None:
        return _FORCE
    return _LITTLE_ENDIAN and n >= MIN_N and k >= max(16, 6144 // n)


def enabled_block(n: int, k: int) -> bool:
    """Routing heuristic for ``k`` agents' ``D(G - u)`` on ``n`` vertices.

    One packed pass over the ``k * n`` lanes overtakes ``k`` separate
    rebuilds once the lanes fill a word, at every ``n`` (measured in
    ``benchmarks/bench_kernel.py``).
    """
    if _FORCE is not None:
        return _FORCE
    return _LITTLE_ENDIAN and k >= 2 and k * n >= 64


@contextmanager
def forced(value: Optional[bool]):
    """Force the kernel on/off inside a ``with`` block (tests, benchmarks)."""
    global _FORCE
    prev = _FORCE
    _FORCE = value
    try:
        yield
    finally:
        _FORCE = prev


def pack_rows(B: np.ndarray) -> np.ndarray:
    """Pack a ``(k, n)`` boolean matrix into ``(k, ceil(n/64))`` uint64 rows.

    Bit ``v`` of ``out[i, v // 64]`` (little-endian bit order) is
    ``B[i, v]``; trailing pad bits are zero.
    """
    B = np.ascontiguousarray(B, dtype=bool)
    k, n = B.shape
    nbytes = ((n + 63) // 64) * 8
    packed = np.packbits(B, axis=1, bitorder="little")
    if packed.shape[1] != nbytes:
        packed = np.concatenate(
            [packed, np.zeros((k, nbytes - packed.shape[1]), dtype=np.uint8)], axis=1
        )
    return packed.view(np.uint64)


def unpack_rows(P: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ``(k, W)`` uint64 → ``(k, n)`` bool."""
    bits = np.unpackbits(P.view(np.uint8), axis=1, count=n, bitorder="little")
    return bits.view(np.bool_)


def bfs_distances(A: np.ndarray, source: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Single-source BFS distances, packed-row frontier expansion.

    Semantics identical to :func:`adjacency.bfs_distances`: ``float64``
    vector, ``inf`` for unreachable or masked-out vertices.
    """
    n = A.shape[0]
    dist = np.full(n, np.inf)
    if mask is not None and not mask[source]:
        return dist
    P = pack_rows(A)
    not_visited = ~np.zeros(P.shape[1], dtype=np.uint64)
    if mask is not None:
        not_visited &= pack_rows(mask.reshape(1, -1))[0]
    frontier = np.zeros(P.shape[1], dtype=np.uint64)
    frontier[source >> 6] = np.uint64(1) << np.uint64(source & 63)
    d = 0
    while True:
        idx = np.flatnonzero(unpack_rows(frontier.reshape(1, -1), n)[0])
        if idx.size == 0:
            return dist
        dist[idx] = d
        not_visited &= ~frontier
        frontier = np.bitwise_or.reduce(P[idx], axis=0) & not_visited
        d += 1


def _flat_neighbors(A: np.ndarray):
    """CSR-style flat neighbour list of a symmetric adjacency matrix.

    ``A`` may also be a ``(G, n, n)`` stack, read as one block-diagonal
    graph on ``G * n`` vertices (vertex ``v`` of graph ``g`` is
    ``g * n + v``).  Returns ``(flat, offsets, empty)``:
    ``flat[offsets[u]:offsets[u+1]]`` are the neighbours of ``u``
    (``offsets`` has the sentinel index ``flat.size`` appended for
    trailing zero-degree rows) and ``empty`` indexes the zero-degree
    vertices whose reduceat rows are garbage.
    """
    n = A.shape[-1]
    rows, cols = np.divmod(np.flatnonzero(A), n)
    # a row of graph g is g * n + v, so its block offset is rows // n * n
    cols += rows - rows % n
    counts = np.bincount(rows, minlength=A.size // max(n, 1))
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return cols, offsets, np.flatnonzero(counts == 0)


def _expand(neighbors, F: np.ndarray, visited: np.ndarray, lanes: int, n: int,
            dead: Optional[np.ndarray] = None) -> np.ndarray:
    """The layer loop every multi-lane search runs.

    ``F[v]`` holds bit ``s`` iff vertex ``v`` is in lane ``s``'s
    frontier; ``visited`` (updated in place) starts as the seeds plus
    any vertex a lane must never enter, and ``dead`` vertices are
    entered by no lane.  Returns ``depth``, where ``depth[v, s]`` counts
    the layers before lane ``s`` visits ``v``: 0 for the seeds, garbage
    for pairs never reached.  Every lane searches a graph of ``n``
    vertices, so it runs at most ``n`` layers (``n < 255`` fits a byte).
    """
    flat, offsets, empty = neighbors
    depth = np.zeros((F.shape[0], lanes), dtype=np.uint8 if n < 0xFF else
                     np.uint16 if n < 0xFFFF else np.uint32)
    gathered = np.empty((flat.size + 1, F.shape[1]), dtype=np.uint64)
    gathered[-1] = 0
    while True:
        # complementing the packed words first makes the unpack itself
        # produce the not-yet-visited indicator (pad bits are dropped)
        depth += unpack_rows(~visited, lanes)
        np.take(F, flat, axis=0, out=gathered[:-1])
        # the zero sentinel row keeps trailing empty-segment indices in
        # bounds; mid-array empty segments (offsets[u] == offsets[u+1])
        # come back as the next vertex's first row and are zeroed below.
        nxt = np.bitwise_or.reduceat(gathered, offsets, axis=0)
        if empty.size:
            nxt[empty] = 0
        nxt &= ~visited
        if dead is not None and dead.size:
            nxt[dead] = 0
        if not nxt.any():
            return depth
        F = nxt
        visited |= nxt


def bfs_distances_multi(
    A: np.ndarray,
    sources: Sequence[int],
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """BFS distances from several sources at once (``(k, n)`` float).

    Word-parallel across the *source* dimension: 64 searches advance per
    word-op, one gather + one segmented OR per layer.  Results are
    bit-identical to :func:`adjacency.bfs_distances_multi`.
    """
    n = A.shape[0]
    src = np.asarray(sources, dtype=np.int64)
    k = src.size
    if n == 0 or k == 0:
        return np.full((k, n), np.inf)
    lanes = np.arange(k)

    alive_src = np.ones(k, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)[src]
    # seeding through a dense (n, k) matrix makes duplicate sources free
    seed = np.zeros((n, k), dtype=bool)
    seed[src[alive_src], lanes[alive_src]] = True
    F = pack_rows(seed)
    dead = None if mask is None else np.flatnonzero(~np.asarray(mask, dtype=bool))
    visited = F.copy()
    depth = _expand(_flat_neighbors(np.asarray(A, dtype=bool)), F, visited, k, n, dead)

    # one fused pass: float64 depth where reached, inf elsewhere
    return np.where(unpack_rows(visited, k).T, depth.T, np.inf)


def all_pairs_distances(A: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """APSP via the word-parallel multi-source expansion.

    Bit-identical to :func:`adjacency.all_pairs_distances` /
    ``all_pairs_distances_fast``.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    return bfs_distances_multi(A, np.arange(n), mask=mask)


def deviation_distances_block(
    pairs: Sequence[Tuple[np.ndarray, Sequence[int]]],
) -> List[np.ndarray]:
    """``D(G - u)`` of every agent of every ``(A, agents)`` pair, in one
    packed pass.

    The graphs, all on ``n`` vertices, are stacked along the vertex axis
    into one block-diagonal graph.  Agent slot ``k`` of every graph owns
    lanes ``k*n .. k*n + n - 1`` (one per source) with that agent
    removed, so the graphs share lanes: a pass costs ``ceil(max_K * n /
    64)`` words per vertex row however many graphs it prices, and every
    layer's gather and OR serve all of them.  Returns one ``(K, n, n)``
    array per pair whose slice ``k`` is bit-identical to
    :func:`adjacency.distances_without_vertex` of ``agents[k]``.
    """
    stack = np.stack([np.asarray(A, dtype=bool) for A, _ in pairs])
    agents = [np.asarray(a, dtype=np.int64) for _, a in pairs]
    G, n = stack.shape[0], stack.shape[-1]
    K = max(a.size for a in agents)
    if n == 0 or K == 0:
        return [np.full((a.size, n, n), np.inf) for a in agents]
    lanes = K * n
    graph = np.repeat(np.arange(G), [a.size for a in agents])
    slot = np.concatenate([np.arange(a.size) for a in agents])
    # seed[g*n + v, k*n + s] / cut[...]: lane (k, s) of graph g starts
    # at v = s and never enters v = agents[g][k]
    seed = np.zeros((G, n, K, n), dtype=bool)
    seed[graph, :, slot, :] = np.eye(n, dtype=bool)
    cut = np.zeros((G, n, K, n), dtype=bool)
    cut[graph, np.concatenate(agents), slot, :] = True
    seed &= ~cut
    F = pack_rows(seed.reshape(G * n, lanes))
    blocked = pack_rows(cut.reshape(G * n, lanes))
    visited = F | blocked
    depth = _expand(_flat_neighbors(stack), F, visited, lanes, n)
    reached = unpack_rows(visited & ~blocked, lanes)
    # D[g, v, k, s] is the distance from s to v in G_g - agents[g][k];
    # distances are symmetric, so [g, k] read as (v, s) is D(G - u)
    D = np.where(reached, depth, np.inf).reshape(G, n, K, n).transpose(0, 2, 1, 3)
    return [D[g, :a.size] for g, a in enumerate(agents)]


def is_connected_without_vertex(A: np.ndarray, u: int) -> bool:
    """``True`` iff ``A - u`` is connected — packed reachability only.

    No distance bookkeeping at all: the frontier and visited sets are
    word bitsets, the expansion is an OR-reduction of packed adjacency
    rows, and the verdict is one ``bitwise_count`` at the end.
    """
    n = A.shape[0]
    if n <= 2:
        return True
    P = pack_rows(A)
    W = P.shape[1]
    # not_visited starts as "all alive vertices": pad bits and u cleared
    not_visited = ~np.zeros(W, dtype=np.uint64)
    if n & 63:
        not_visited[-1] = (np.uint64(1) << np.uint64(n & 63)) - np.uint64(1)
    not_visited[u >> 6] &= ~(np.uint64(1) << np.uint64(u & 63))
    start = 0 if u != 0 else 1
    frontier = np.zeros(W, dtype=np.uint64)
    frontier[start >> 6] = np.uint64(1) << np.uint64(start & 63)
    not_visited &= ~frontier
    while True:
        idx = np.flatnonzero(unpack_rows(frontier.reshape(1, -1), n)[0])
        if idx.size == 0:
            break
        frontier = np.bitwise_or.reduce(P[idx], axis=0) & not_visited
        not_visited &= ~frontier
    return not int(np.bitwise_count(not_visited).sum())
