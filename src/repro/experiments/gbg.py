"""Figures 11 and 13 — the Greedy Buy Game study (Section 4.2), plus the
move-mix trajectory analysis of Section 4.2.2.

Setup: random connected initial networks with ``m in {n, 2n, 4n}``
edges, ``alpha in {n/10, n/4, n/2, n}`` (the paper plots n/10, n/4, n),
both policies, 5000 trials; GBG ties prefer deletions over swaps over
additions.

Headline observations:

* SUM: < 7n steps, growth linear in n; max cost <= random; denser
  initial networks (m = 4n) and smaller alpha converge slower.
* MAX: < 8n steps; alpha matters little; for m >= 2n the max cost
  policy is *slower* than random — the opposite of SUM.
* trajectories have a phase structure: deletions first, then swaps
  (with some buys), then a cleanup of swaps+deletions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dynamics import run_dynamics
from ..core.games import GreedyBuyGame
from ..core.policies import MaxCostPolicy, RandomPolicy
from ..graphs.generators import random_m_edge_network
from ..registry.scenario import ScenarioSpec
from .config import FigureSpec

__all__ = [
    "figure11_spec",
    "figure13_spec",
    "move_mix_trajectory",
    "phase_summary",
    "PAPER_ALPHAS",
    "PAPER_MS",
]

PAPER_ALPHAS: Tuple[str, ...] = ("n/10", "n/4", "n")
PAPER_MS: Tuple[str, ...] = ("n", "4n")


def _gbg_configs(mode: str, ms: Sequence[str], alphas: Sequence[str]) -> Tuple[ScenarioSpec, ...]:
    return tuple(
        ScenarioSpec(game="gbg", policy=policy, topology="random",
                     game_params={"mode": mode, "alpha": a},
                     topology_params={"m_edges": m})
        for policy in ("maxcost", "random")
        for m in ms
        for a in alphas
    )


def figure11_spec(
    ms: Sequence[str] = ("n", "4n"),
    alphas: Sequence[str] = ("n/10", "n"),
    n_values: Sequence[int] = (10, 20, 30),
    trials: int = 20,
) -> FigureSpec:
    """Figure 11: SUM-GBG steps until convergence."""
    return FigureSpec(
        figure="fig11",
        title="SUM-GBG: steps until convergence",
        configs=_gbg_configs("sum", ms, alphas),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("7n",),
    )


def figure13_spec(
    ms: Sequence[str] = ("n", "4n"),
    alphas: Sequence[str] = ("n/10", "n"),
    n_values: Sequence[int] = (10, 20, 30),
    trials: int = 20,
) -> FigureSpec:
    """Figure 13: MAX-GBG steps until convergence."""
    return FigureSpec(
        figure="fig13",
        title="MAX-GBG: steps until convergence",
        configs=_gbg_configs("max", ms, alphas),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("8n",),
    )


# ---------------------------------------------------------------------------
# Section 4.2.2: phase structure of GBG trajectories
# ---------------------------------------------------------------------------


@dataclass
class PhaseSummary:
    """Operation mix per thirds of a trajectory (early/middle/late)."""

    total: Counter
    early: Counter
    middle: Counter
    late: Counter

    def dominant(self, phase: str) -> Optional[str]:
        """Most frequent operation kind of a phase (None when empty)."""
        c: Counter = getattr(self, phase)
        if not c:
            return None
        return c.most_common(1)[0][0]


def move_mix_trajectory(
    n: int,
    m_factor: int = 4,
    alpha_factor: float = 0.25,
    mode: str = "sum",
    policy: str = "random",
    seed: int = 0,
) -> List[str]:
    """The operation-kind sequence of a typical GBG run.

    Mirrors the paper's sample-trajectory analysis: ``m = m_factor * n``
    edges, ``alpha = alpha_factor * n``.
    """
    rng = np.random.default_rng(seed)
    net = random_m_edge_network(n, m_factor * n, seed=rng)
    game = GreedyBuyGame(mode, alpha=alpha_factor * n)
    pol = MaxCostPolicy() if policy == "maxcost" else RandomPolicy()
    res = run_dynamics(game, net, pol, max_steps=60 * n, rng=rng, move_tie_break="first")
    return res.kind_trajectory


def phase_summary(kinds: Sequence[str]) -> PhaseSummary:
    """Split a trajectory into thirds and count operation kinds."""
    k = len(kinds)
    third = max(1, k // 3)
    return PhaseSummary(
        total=Counter(kinds),
        early=Counter(kinds[:third]),
        middle=Counter(kinds[third : 2 * third]),
        late=Counter(kinds[2 * third :]),
    )
