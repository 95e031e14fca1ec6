"""Stability notions and structural facts about stable networks.

* :func:`is_stable` — pure Nash stability for any game type (no agent
  has an admissible improving move).
* :func:`is_greedy_stable` — greedy-equilibrium stability (Lenzner,
  *Greedy Selfish Network Creation*): no agent has an improving
  *single-edge* deviation.  NE ⊆ GE for every game; the notions
  coincide exactly for games whose full move set is single-edge
  (SG/ASG/GBG), so the interesting gap lives in the BG and the
  bilateral game.
* :func:`is_pairwise_stable` — the bilateral game's solution concept
  (Corbo & Parkes): no agent wants to *delete* an incident edge, and no
  non-adjacent pair would *both* (weakly, one strictly) gain from adding
  their edge.
* :func:`stable_tree_shape` — Alon et al.'s classification used
  throughout Section 2: stable trees of the MAX-SG are stars or double
  stars (diameter <= 3); the SUM-SG's stable trees are stars
  (diameter <= 2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.games import EPS, BilateralGame, Game
from ..core.moves import StrategyChange
from ..core.network import Network
from ..graphs.incremental import IncrementalBackend
from ..graphs.properties import is_double_star, is_star, is_tree

__all__ = [
    "is_stable",
    "is_greedy_stable",
    "unhappy_agents",
    "greedy_unhappy_agents",
    "is_pairwise_stable",
    "stable_tree_shape",
    "equilibrium_census",
    "greedy_equilibrium_census",
]


def is_stable(game: Game, net: Network) -> bool:
    """Pure Nash stability: no agent has an admissible improving move."""
    return game.is_stable(net)


def is_greedy_stable(game: Game, net: Network) -> bool:
    """Greedy-equilibrium stability: no agent has an improving
    single-edge deviation (buy one / delete one owned / swap one edge).

    Every pure NE is a GE; the converse holds exactly for games whose
    move set is already single-edge (``game.moves_are_greedy()``).
    """
    return game.is_greedy_stable(net)


def unhappy_agents(game: Game, net: Network) -> List[int]:
    """Agents with at least one admissible improving move."""
    return game.unhappy_agents(net)


def greedy_unhappy_agents(game: Game, net: Network) -> List[int]:
    """Agents with at least one improving single-edge deviation."""
    return game.greedy_unhappy_agents(net)


def is_pairwise_stable(game: BilateralGame, net: Network) -> Tuple[bool, Optional[str]]:
    """Pairwise stability for the bilateral equal-split game.

    Conditions:

    1. no agent strictly gains by deleting one incident edge
       (deletions are unilateral);
    2. no absent edge ``{u, v}`` exists such that adding it strictly
       helps one endpoint and does not hurt the other.

    Returns ``(stable, witness)`` where ``witness`` describes the first
    violated condition.
    """
    n = net.n
    backend = IncrementalBackend()
    base = game.cost_vector(net, backend)
    # deletions: u's own moves, all priced from one D(G - u)
    for u in range(n):
        nbrs = set(net.neighbors(u).tolist())
        for v in sorted(nbrs):
            delete = StrategyChange.of(u, nbrs - {v}, bilateral=True)
            if game.evaluate_move(net, u, delete, backend) < base[u] - EPS:
                return False, f"{net.label(u)} gains by deleting {{{net.label(u)},{net.label(int(v))}}}"
    # additions (bilateral consent)
    for u in range(n):
        for v in range(u + 1, n):
            if net.A[u, v]:
                continue
            if game.host is not None and not game.host[u, v]:
                continue
            work = net.copy()
            work.add_edge(u, v)
            after = game.cost_vector(work)
            cu, cv = after[u], after[v]
            better_u, better_v = cu < base[u] - EPS, cv < base[v] - EPS
            nohurt_u, nohurt_v = cu <= base[u] + EPS, cv <= base[v] + EPS
            if (better_u and nohurt_v) or (better_v and nohurt_u):
                return False, f"edge {{{net.label(u)},{net.label(v)}}} is mutually beneficial"
    return True, None


def equilibrium_census(
    game: Game,
    n: Optional[int] = None,
    start: Optional[Network] = None,
    **kwargs,
):
    """All pure Nash equilibria of a game's configuration space.

    A thin analysis-layer front for the statespace explorer
    (:func:`repro.statespace.explore.explore`): pass ``n`` for the
    exhaustive census over every connected configuration, or ``start``
    for the reachable component of one network.  Returns
    ``(equilibria, report)`` where ``equilibria`` is the list of stable
    networks (decoded, in the report's sorted-digest order) and
    ``report`` the full :class:`~repro.statespace.explore.ExplorationReport`
    (cycles, basin sizes, longest improving path).

    The explorer's sinks are cross-checked against the brute-force
    stability oracle of the requested moveset before returning — this
    function never hands back a census the oracle disagrees with.  Pass
    ``moves="greedy"`` for the greedy-equilibrium census (or use
    :func:`greedy_equilibrium_census`); either way the returned report
    carries *both* notions when computable — ``report.equilibria`` are
    the sinks of the requested dynamics and ``report.greedy_equilibria``
    the GE set, so the GE-vs-NE comparison is one census call.
    """
    from ..statespace.explore import explore, verify_sinks

    report = explore(game, start=start, n=n, **kwargs)
    verify_sinks(report, game)
    graph = report.graph
    nets = [graph.network(graph.index[bytes.fromhex(h)]) for h in report.equilibria]
    return nets, report


def greedy_equilibrium_census(
    game: Game,
    n: Optional[int] = None,
    start: Optional[Network] = None,
    **kwargs,
):
    """All greedy equilibria of a game's configuration space.

    :func:`equilibrium_census` under the ``greedy`` moveset: the
    explorer expands improving single-edge deviations only, so sinks
    are exactly the GE, cross-checked against the brute-force
    :func:`is_greedy_stable` scan.  Returns ``(equilibria, report)``
    like :func:`equilibrium_census`.
    """
    return equilibrium_census(game, n=n, start=start, moves="greedy", **kwargs)


def stable_tree_shape(net: Network) -> str:
    """Classify a tree as ``'star' | 'double-star' | 'other'``.

    Alon et al. (SPAA'10): the MAX-SG's stable trees are exactly stars
    and double stars; the SUM-SG's are stars.  The tree-dynamics tests
    assert every converged tree lands in the right class.
    """
    if not is_tree(net.A):
        return "not-a-tree"
    if is_star(net.A):
        return "star"
    if is_double_star(net.A):
        return "double-star"
    return "other"
