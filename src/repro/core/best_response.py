"""Vectorized deviation evaluation — the ``D(G-u)`` factorization.

The hot loop of every experiment in the paper is: *given agent ``u`` in
network ``G``, evaluate all of ``u``'s admissible strategy-changes*.

The key observation (used already by Lenzner [WINE'12] for the greedy
buy game, and the reason best responses are polynomial there) is that a
shortest path from ``u`` never revisits ``u``, hence for **any**
neighbour set ``N'`` of ``u``::

    d_{G'}(u, x) = 1 + min_{w in N'} d_{G-u}(w, x)        (x != u)

where ``G - u`` is ``G`` with ``u`` removed — a graph that does not
depend on the candidate strategy at all.  So one APSP of ``G - u``
(the distance backend's ``deviation_distances``) prices *every*
deviation of ``u``, and ``u``'s current cost with them:

* a single candidate set costs one ``min`` reduction over its rows;
* all ``O(n)`` single-edge variants (the swap/buy/delete moves) cost one
  vectorized ``np.minimum(base, 1 + D[candidates])`` pass.

:func:`price_single_edge` runs that pass for many ``(network, agent)``
pairs at once, over their stacked ``D(G - u)``.  The base "every
neighbour but ``v``" of each dropped edge ``{u, v}`` is read off the
per-column first and second minimum over ``u``'s neighbour rows, so no
base costs a reduction of its own.

No per-candidate BFS ever runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from .costs import DistanceMode
from .network import Network

__all__ = ["DeviationEvaluator", "SingleEdgeBlock", "price_single_edge"]

# one evaluator build = one priced agent-state; batches are the
# vectorized all-single-edge-variants passes
_DEVIATION_EVALS = obs_metrics.counter(
    "repro_deviation_evals_total",
    "DeviationEvaluator work by operation",
    ("op",))
_EVAL_BUILDS = _DEVIATION_EVALS.labels(op="build")
_EVAL_BATCHES = _DEVIATION_EVALS.labels(op="batch")


class DeviationEvaluator:
    """Prices all deviations of one agent in one network state.

    Parameters
    ----------
    net:
        the current network.
    u:
        the deviating agent.
    mode:
        SUM or MAX distance aggregation.
    D:
        the ``APSP(G - u)`` matrix (row/column ``u`` ``inf``), as a
        :class:`repro.graphs.incremental.DistanceBackend` answers
        ``deviation_distances``.  The evaluator reads but never writes it.

    Notes
    -----
    All methods treat a *strategy* as the full neighbour set the agent
    would have after the deviation (callers add back the incident edges
    owned by other agents, which the deviator cannot touch).  The
    agent's current strategy is one such set, so ``c_G(u)`` itself is
    priced here too.
    """

    __slots__ = ("net", "u", "n", "mode", "D")

    def __init__(self, net: Network, u: int, mode: DistanceMode, D: np.ndarray):
        self.net = net
        self.u = int(u)
        self.n = net.n
        self.mode = mode
        self.D = D
        _EVAL_BUILDS.inc()

    # -- scalar evaluation -------------------------------------------------
    def distance_vector(self, neighbor_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distance vector of ``u`` if its neighbour set were ``neighbor_ids``."""
        ids = np.asarray(neighbor_ids, dtype=np.int64)
        row = np.full(self.n, np.inf)
        if ids.size:
            row = 1.0 + self.D[ids].min(axis=0)
        row[self.u] = 0.0
        return row

    def distance_cost(self, neighbor_ids: Sequence[int] | np.ndarray) -> float:
        """SUM/MAX distance-cost of the hypothetical neighbour set."""
        row = self.distance_vector(neighbor_ids)
        if self.n == 1:
            return 0.0
        return self.mode.aggregate(row)

    # -- batch evaluation --------------------------------------------------
    def base_vector(self, kept_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """``min_{w in kept} (1 + D[w])`` — the part of the strategy that
        stays fixed while one endpoint varies.  All-``inf`` when empty."""
        ids = np.asarray(kept_ids, dtype=np.int64)
        if ids.size == 0:
            return np.full(self.n, np.inf)
        return 1.0 + self.D[ids].min(axis=0)

    def batch_costs(
        self,
        base: np.ndarray,
        candidates: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Distance-cost of ``base``-plus-one-candidate, per candidate.

        ``base`` is a vector from :meth:`base_vector`, or a ``(k, n)``
        stack of them; ``candidates`` are the varying new endpoints.
        Returns costs aligned with ``candidates`` — shape ``(k, c)`` for
        a stack, every base priced in the same 3-D ``minimum`` and
        reduction.
        """
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.size == 0:
            return np.empty(base.shape[:-1] + (0,))
        _EVAL_BATCHES.inc()
        # the fancy-index gather is already a fresh buffer; a single base
        # finishes the candidate rows in place
        M = self.D[cand]
        M += 1.0
        if base.ndim == 1:
            np.minimum(M, base, out=M)
        else:
            M = np.minimum(M, base[:, None, :])
        M[..., self.u] = 0.0
        if self.mode is DistanceMode.SUM:
            return M.sum(axis=-1)
        return M.max(axis=-1)

    def cost_of_base(self, base: np.ndarray):
        """Distance-cost of a base vector alone (used for deletions); a
        ``(k, n)`` stack of bases gives one cost per row."""
        row = base.copy()
        row[..., self.u] = 0.0
        if row.ndim == 2:
            return row.sum(axis=1) if self.mode is DistanceMode.SUM else row.max(axis=1)
        if self.n == 1:
            return 0.0
        return self.mode.aggregate(row)


class SingleEdgeBlock(NamedTuple):
    """The single-edge deviations of a block of ``K`` ``(network, agent)``
    pairs, priced.

    Each pair has a grid of ``R`` rows — the row keeping every
    neighbour (the buys), then one row per droppable edge ``{u, v}``,
    ``v`` ascending — by ``1 + C`` columns: dropping the row's edge and
    adding nothing (a delete), then adding each candidate, ascending.
    The entries are the grid's admissible cells in C order, which is
    the canonical move order.
    """

    #: ``(K,)`` distance cost of each agent's current neighbourhood
    current: np.ndarray
    #: ``(E,)`` agent's cost after each entry's deviation
    costs: np.ndarray
    #: ``(E,)`` flat grid cell ``(k * R + row) * (1 + C) + column``
    cells: np.ndarray
    #: ``(K, R - 1)`` the neighbour each droppable row drops (row 1 on)
    drops: np.ndarray
    #: ``(K, C)`` the candidate each adding column adds (column 1 on)
    adds: np.ndarray
    #: ``(K + 1,)`` offsets: pair ``k`` owns entries ``starts[k]:starts[k+1]``
    starts: Sequence[int]

    def deviation(self, e: int) -> Tuple[int, int, int]:
        """``(pair, dropped, added)`` of entry ``e`` (-1: none)."""
        R, width = self.drops.shape[1] + 1, self.adds.shape[1] + 1
        k, rest = divmod(int(self.cells[e]), R * width)
        row, column = divmod(rest, width)
        return (k, int(self.drops[k, row - 1]) if row else -1,
                int(self.adds[k, column - 1]) if column else -1)


def _aggregate(rows: np.ndarray, mode: DistanceMode) -> np.ndarray:
    """SUM or MAX over the last axis of a stack of distance rows."""
    return (np.add if mode is DistanceMode.SUM else np.maximum).reduce(rows, axis=-1)


def _ascending(mask: np.ndarray, u) -> Tuple[np.ndarray, np.ndarray]:
    """The set columns of every row of a ``(K, n)`` mask, ascending and
    padded with ``u[k]`` to the longest row: ``(columns, real)``."""
    if len(mask) == 1:  # one row: nothing to pad, every column is real
        columns = mask[0].nonzero()[0][None]
        return columns, columns >= 0
    counts = mask.sum(axis=1)
    columns = np.argsort(~mask, axis=1, kind="stable")[:, :counts.max()]
    real = np.arange(columns.shape[1]) < counts[:, None]
    return np.where(real, columns, u[:, None]), real


def price_single_edge(
    evaluators: Sequence[DeviationEvaluator],
    sources: Optional[np.ndarray],
    host: Optional[np.ndarray],
    terms: Optional[np.ndarray],
) -> SingleEdgeBlock:
    """Price every single-edge deviation of many agents in one pass.

    ``evaluators`` are the pairs (one ``n``, one distance mode);
    ``sources`` is a ``(K, n)`` mask of the neighbours whose edge each
    agent may drop (``None``: every neighbour); an agent may add an edge
    to any non-neighbour other than itself that ``host`` (an ``n x n``
    mask, or ``None``) allows.  Without ``terms`` the deviations are the
    swaps, priced by distance alone.  With ``terms``, a ``(K, 3)`` array
    of each agent's edge cost after a buy, a swap and a delete, they
    also hold the buys and the deletes, and cost distance plus edge.

    Every base (a kept neighbourhood) of every pair meets all its
    pair's candidates in one broadcast ``minimum``, whose
    ``(K, bases, candidates, n)`` result holds fewer than ``K * n**3``
    entries (``Game._evaluator_blocks`` bounds that).  A single pair
    (every scan's call) indexes its own ``D(G - u)`` with plain
    indices: no stacking and no padding.
    """
    K, n, mode = len(evaluators), evaluators[0].n, evaluators[0].mode
    if K == 1:
        ev = evaluators[0]
        table, offset, ks, u, nbr = ev.D, 0, 0, ev.u, ev.net.A[ev.u][None]
    else:
        # row k*n + w is row w of pair k's D(G - u); padding reads the
        # agent's own row, which is all inf
        table = np.concatenate([ev.D for ev in evaluators])
        ks = np.arange(K)
        offset, u = (ks * n)[:, None], np.array([ev.u for ev in evaluators])
        nbr = np.array([ev.net.A[ev.u] for ev in evaluators])

    # first and second minimum over each agent's neighbour rows, per column
    columns, real = _ascending(nbr, u)
    G = table[columns + offset]
    if columns.shape[1] > 1:
        # in place unless G serves the bases too (every neighbour a source)
        minima = G.copy() if sources is None else G
        minima.partition(1, axis=1)
        first, second = minima[:, 0], minima[:, 1]
    else:
        second = np.full((K, n), np.inf)
        first = G[:, 0] if columns.shape[1] else second

    # the bases: every neighbour (the buys' base, and the neighbourhood
    # now), then per source v every neighbour but v (the second minimum
    # where v attains the first)
    if sources is not None:
        columns, real = _ascending(sources, u)
        G = table[columns + offset]
    first = first[:, None, :]
    bases = np.concatenate([first, np.where(G == first, second[:, None, :], first)], axis=1)
    bases += 1.0
    # a zero at u stays zero under every minimum below
    bases[ks, :, u] = 0.0

    candidates = ~nbr
    candidates[ks, u] = False
    if host is not None:
        candidates &= host[u]
    adds, addable = _ascending(candidates, u)
    R, C = bases.shape[1], adds.shape[1]
    grid = np.empty((K, R, 1 + C))
    grid[:, :, 0] = _aggregate(bases, mode)
    current = grid[:, 0, 0]
    # the swap games price no buys: their adding cells start at row 1
    top = 0 if terms is not None else 1
    if C and R > top:
        Dc = table[adds + offset]
        Dc += 1.0
        grid[:, top:, 1:] = _aggregate(np.minimum(bases[:, top:, None, :], Dc[:, None]), mode)
    valid = np.zeros((K, R, 1 + C), dtype=bool)
    valid[:, 1:, 1:] = real[:, :, None] & addable[:, None, :]
    if terms is not None:  # the buys and the deletes, with edge costs
        grid[:, :, 1:] += terms[:, [0] + [1] * (R - 1), None]
        grid[:, 1:, 0] += terms[:, 2, None]
        valid[:, 0, 1:] = addable
        valid[:, 1:, 0] = real
    cells = np.flatnonzero(valid)
    if cells.size:
        _EVAL_BATCHES.inc()
    starts = ([0, cells.size] if K == 1
              else np.searchsorted(cells, np.arange(K + 1) * (R * (1 + C))).tolist())
    return SingleEdgeBlock(current, grid.ravel()[cells], cells, columns, adds, starts)
