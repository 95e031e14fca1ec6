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

No per-candidate BFS ever runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from .costs import DistanceMode
from .network import Network

__all__ = ["DeviationEvaluator"]

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
