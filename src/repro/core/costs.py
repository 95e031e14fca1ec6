"""Agent cost functions — Section 1.1 of the paper.

An agent ``u``'s cost in network ``G`` is::

    c_G(u) = e_G(u) + delta_G(u)

where the *edge-cost* ``e_G(u)`` is ``alpha * (#edges owned by u)`` in
the unilateral games (BG/GBG), ``alpha/2 * deg(u)`` in the bilateral
equal-split game, and 0 in the swap games (SG/ASG); and the
*distance-cost* ``delta_G(u)`` is either the sum of distances
(SUM-version) or the eccentricity (MAX-version), with disconnected
networks costing ``inf``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .network import Network

__all__ = [
    "DistanceMode",
    "EdgeCostRule",
    "SharedEdgeCostRule",
    "SWAP_EDGE_COST",
    "OWNER_PAYS",
    "EQUAL_SPLIT",
    "COOP_SPLIT",
]


class DistanceMode(str, Enum):
    """SUM- or MAX-version of the distance-cost function."""

    SUM = "sum"
    MAX = "max"

    def aggregate(self, dist_row: np.ndarray, self_index: int | None = None) -> float:
        """Aggregate a distance vector into a distance-cost scalar.

        ``dist_row`` may contain ``inf`` (disconnection), which
        propagates to the result under both aggregations.  The agent's
        own entry is 0 and does not affect either aggregation, so no
        masking is required.
        """
        if self is DistanceMode.SUM:
            return float(dist_row.sum())
        return float(dist_row.max())


# --- edge-cost rules ---------------------------------------------------


class EdgeCostRule:
    """How the edge price alpha is charged to an agent.

    ``vector_fn`` is the whole-population form (one array instead of
    ``n`` scalar calls); it must agree with ``fn`` entry for entry and
    defaults to the scalar loop for custom rules that only define one.

    ``owner_share`` / ``peer_share`` declare, when known, what fraction
    of the edge price alpha each endpoint of an edge is charged (owner
    side and non-owner side respectively).  They power two derived
    quantities the rest of the system uses:

    * :meth:`owner_marginal` — the edge-cost delta to an agent of
      buying/deleting one *owned* edge (the per-edge price term of the
      single-edge buy games);
    * :attr:`total_share` — the per-edge fraction of alpha appearing in
      the *social* cost (owner + peer), which makes the PoA reference
      optimum a function of the rule instead of an ``alpha > 0``
      heuristic.

    Custom rules may leave both ``None``; consumers that need them
    raise a named error rather than guessing.
    """

    def __init__(
        self,
        fn: Callable[[Network, int, float], float],
        name: str,
        vector_fn: Callable[[Network, float], np.ndarray] | None = None,
        owner_share: float | None = None,
        peer_share: float | None = None,
    ):
        self._fn = fn
        self._vector_fn = vector_fn
        self.name = name
        self.owner_share = owner_share
        self.peer_share = peer_share

    def __call__(self, net: Network, u: int, alpha: float) -> float:
        return self._fn(net, u, alpha)

    def vector(self, net: Network, alpha: float) -> np.ndarray:
        """Edge-cost of every agent as one float array."""
        if self._vector_fn is not None:
            return self._vector_fn(net, alpha)
        return np.array([self._fn(net, u, alpha) for u in range(net.n)])

    @property
    def total_share(self) -> float | None:
        """Per-edge fraction of alpha charged in total over both
        endpoints (``None`` when the rule does not declare its shares)."""
        if self.owner_share is None or self.peer_share is None:
            return None
        return self.owner_share + self.peer_share

    def owner_marginal(self, alpha: float) -> float:
        """Edge-cost delta to an agent of one additional *owned* edge."""
        if self.owner_share is None:
            raise ValueError(
                f"edge rule {self.name!r} declares no owner_share; "
                "cannot price single-edge deviations under it"
            )
        return self.owner_share * alpha

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EdgeCostRule({self.name})"

    def __reduce__(self):
        # the builtin rules close over lambdas, which cannot pickle; they
        # are module singletons, so pickling by name restores the exact
        # object — this is what lets whole Game objects ship to worker
        # processes (the statespace explorer's parallel frontier)
        if _BUILTIN_RULES.get(self.name) is self:
            return (_rule_by_name, (self.name,))
        return super().__reduce__()


#: swap games: no edge-cost term at all.
SWAP_EDGE_COST = EdgeCostRule(
    lambda net, u, alpha: 0.0,
    "none",
    vector_fn=lambda net, alpha: np.zeros(net.n),
    owner_share=0.0,
    peer_share=0.0,
)

#: the unilateral buy games: owner pays alpha per owned edge.
OWNER_PAYS = EdgeCostRule(
    lambda net, u, alpha: alpha * net.edges_owned_count(u),
    "owner-pays",
    vector_fn=lambda net, alpha: alpha * net.budget_vector().astype(np.float64),
    owner_share=1.0,
    peer_share=0.0,
)

#: bilateral equal-split: both endpoints pay alpha/2 per incident edge.
EQUAL_SPLIT = EdgeCostRule(
    lambda net, u, alpha: (alpha / 2.0) * net.degree(u),
    "equal-split",
    vector_fn=lambda net, alpha: (alpha / 2.0) * net.A.sum(axis=1).astype(np.float64),
    owner_share=0.5,
    peer_share=0.5,
)


class SharedEdgeCostRule(EdgeCostRule):
    """Cooperative cost sharing (Demaine et al., *The Price of Anarchy in
    Cooperative Network Creation Games*): every edge's price alpha is
    split between its two endpoints — the builder (owner) pays
    ``owner_share * alpha``, the accepting endpoint the remaining
    ``(1 - owner_share) * alpha``.

    ``owner_share=1`` recovers the unilateral owner-pays rule;
    ``owner_share=0.5`` is the symmetric split the cooperative model is
    usually stated with.  The class pickles by its parameter (unlike
    the lambda-built singletons above), so parameterised rules ship to
    worker processes unchanged.
    """

    def __init__(self, owner_share: float = 0.5):
        share = float(owner_share)
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"owner_share must be in [0, 1], got {owner_share}")

        def fn(net: Network, u: int, alpha: float) -> float:
            owned = net.edges_owned_count(u)
            incoming = net.degree(u) - owned
            return alpha * (share * owned + (1.0 - share) * incoming)

        def vector_fn(net: Network, alpha: float) -> np.ndarray:
            owned = net.budget_vector().astype(np.float64)
            incoming = net.A.sum(axis=1).astype(np.float64) - owned
            return alpha * (share * owned + (1.0 - share) * incoming)

        super().__init__(
            fn,
            f"shared-{share:g}",
            vector_fn=vector_fn,
            owner_share=share,
            peer_share=1.0 - share,
        )

    def __reduce__(self):
        return (SharedEdgeCostRule, (self.owner_share,))


#: the symmetric cooperative split: each endpoint pays alpha/2 per edge,
#: but (unlike EQUAL_SPLIT's bilateral reading) moves stay unilateral.
COOP_SPLIT = SharedEdgeCostRule(0.5)

#: name -> singleton, for pickling the lambda-built rules by identity.
_BUILTIN_RULES = {
    rule.name: rule for rule in (SWAP_EDGE_COST, OWNER_PAYS, EQUAL_SPLIT)
}


def _rule_by_name(name: str) -> EdgeCostRule:
    return _BUILTIN_RULES[name]
