"""Instrumented tree dynamics — Sections 2.1 and 3.1.

This module carries the machinery behind the positive results:

* :func:`run_tree_dynamics` — a dynamics run that records the diameter
  trajectory and the potential (sorted cost vector / social cost) at
  every step, asserting the potential-decrease property along the way.
* :class:`Theorem211Policy` — the deterministic max-cost policy of the
  Theorem 2.11 lower-bound proof: ties among maximum-cost agents break
  towards the *smallest index*, and the moving agent picks the best
  swap whose new endpoint has the smallest index.
* :func:`path_lower_bound_run` — measures ``M(P_n)``, the number of
  moves the MAX-SG needs on the path under that policy (the paper shows
  it is ``Omega(n log n)``).
* :func:`potential_decreases` — checks Lemma 2.6 (sorted cost vector is
  a generalized ordinal potential for the MAX-SG on trees) on a given
  move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.costs import DistanceMode
from ..core.dynamics import RunResult, run_dynamics
from ..core.games import EPS, BestResponse, Game, SwapGame
from ..core.moves import Swap
from ..core.network import Network
from ..core.policies import MovePolicy, first_improving
from ..graphs import adjacency as adj
from ..graphs.incremental import DistanceBackend
from ..graphs.properties import sorted_cost_vector

__all__ = [
    "TreeRunReport",
    "run_tree_dynamics",
    "Theorem211Policy",
    "path_lower_bound_run",
    "potential_decreases",
    "lex_less",
]


def lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    """Strict lexicographic comparison of equal-length vectors."""
    for x, y in zip(a, b):
        if x < y - EPS:
            return True
        if x > y + EPS:
            return False
    return False


def potential_decreases(before: Network, after: Network, mode: str = "max") -> bool:
    """Check the generalized ordinal potential decrease of one move.

    MAX-version: the sorted cost vector must decrease lexicographically
    (Lemma 2.6).  SUM-version: the social cost must strictly decrease
    (Lenzner, SAGT'11 — used by Corollary 3.1).
    """
    if DistanceMode(mode) is DistanceMode.MAX:
        return lex_less(sorted_cost_vector(after.A), sorted_cost_vector(before.A))
    D0 = adj.all_pairs_distances(before.A)
    D1 = adj.all_pairs_distances(after.A)
    return float(D1.sum()) < float(D0.sum()) - EPS


@dataclass
class TreeRunReport:
    """A dynamics run with per-step structural instrumentation."""

    result: RunResult
    diameters: List[float] = field(default_factory=list)
    potential_ok: bool = True
    potential_violations: List[int] = field(default_factory=list)

    @property
    def steps(self) -> int:
        """Number of improving moves performed."""
        return self.result.steps

    @property
    def diameter_monotone(self) -> bool:
        """Whether the diameter never increased along the run."""
        return all(b <= a + EPS for a, b in zip(self.diameters, self.diameters[1:]))


def run_tree_dynamics(
    game: Game,
    initial: Network,
    policy: MovePolicy,
    max_steps: int = 200_000,
    seed: Optional[int] = None,
    check_potential: bool = True,
    backend: Optional[DistanceBackend] = None,
) -> TreeRunReport:
    """Run dynamics on a tree while recording diameters and checking the
    potential-decrease property step by step.

    The run is :func:`~repro.core.dynamics.run_dynamics` (``backend`` as
    there); its trajectory is then replayed on a copy of ``initial`` to
    measure the diameter after every move.  Works for any game but the
    potential semantics follow the game's distance mode (Lemma 2.6 for
    MAX, social cost for SUM).
    """
    result = run_dynamics(game, initial, policy, max_steps=max_steps,
                          seed=seed, backend=backend)
    net = initial.copy()
    diameters = [adj.diameter(net.A)]
    violations: List[int] = []
    mode = game.mode.value
    for record in result.trajectory:
        before = net.copy() if check_potential else None
        record.move.apply(net)
        diameters.append(adj.diameter(net.A))
        if check_potential and not potential_decreases(before, net, mode):
            violations.append(record.step)
    return TreeRunReport(
        result=result,
        diameters=diameters,
        potential_ok=not violations,
        potential_violations=violations,
    )


class Theorem211Policy(MovePolicy):
    """The deterministic policy of Theorem 2.11's lower-bound proof.

    Max cost policy; ties among maximum-cost agents break towards the
    smallest vertex index; and — because the move policy may not choose
    the move — the proof also pins the agent's tie-break: among best
    swaps, connect to the new neighbour of smallest index.  ``select``
    therefore returns a best-response object containing exactly one
    move.
    """

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend=None,
    ) -> Optional[BestResponse]:
        """Smallest-index maximum-cost unhappy agent; smallest-index best swap."""
        costs = game.cost_vector(net, backend=backend)
        order = sorted(range(net.n), key=lambda u: (-costs[u], u))
        br = first_improving(game, net, order, backend)
        if br is None:
            return None
        best = min(br.moves, key=lambda m: (m.new, m.old) if isinstance(m, Swap) else (net.n, 0))
        return BestResponse(br.agent, br.cost_before, br.best_cost, [best])


def path_lower_bound_run(n: int, mode: str = "max") -> TreeRunReport:
    """Measure ``M(P_n)``: MAX-SG moves on the path under Theorem 2.11's
    deterministic policy.  The paper proves ``M(P_n) in Omega(n log n)``
    (and O(n log n) for any max-cost run)."""
    from ..graphs.generators import path_network

    net = path_network(n)
    game = SwapGame(mode)
    return run_tree_dynamics(game, net, Theorem211Policy(), check_potential=(mode == "max"))
