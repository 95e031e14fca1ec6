"""Figures 7 and 8 — the bounded-budget ASG study (Section 3.4).

The paper's setup: random initial networks in which every agent owns
exactly ``k`` edges, ``k in {1,2,3,4,5,6,10}``, both the max cost and
the random policy, ``n = 10..100``, 10000 trials per configuration;
plotted are the average and the maximum number of steps, against the
envelope ``f(n) = 5n`` (Figure 8 adds ``g(n) = n log n``).

Headline observations to reproduce:

* every run converges in < 5n steps (one exception in the MAX data);
* SUM: max cost beats random, most visibly for k in 2..6;
* k = 1 needs only ~n steps (the network is almost a tree);
* MAX: the two policies are nearly indistinguishable;
* larger budgets converge faster in the MAX version.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..registry.scenario import ScenarioSpec
from .config import FigureSpec

__all__ = ["figure7_spec", "figure8_spec", "PAPER_BUDGETS", "DEFAULT_BUDGETS"]

#: the paper's budget grid
PAPER_BUDGETS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 10)
#: scaled-down default grid (covers the qualitative claims)
DEFAULT_BUDGETS: Tuple[int, ...] = (1, 2, 4)


def _budget_configs(mode: str, budgets: Sequence[int]) -> Tuple[ScenarioSpec, ...]:
    return tuple(
        ScenarioSpec(game="asg", policy=policy, topology="budget",
                     game_params={"mode": mode}, topology_params={"budget": k})
        for policy in ("maxcost", "random")
        for k in budgets
    )


def figure7_spec(
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    n_values: Sequence[int] = (10, 20, 30, 40),
    trials: int = 30,
) -> FigureSpec:
    """Figure 7: SUM-ASG with budget k (avg & max steps vs agents)."""
    return FigureSpec(
        figure="fig7",
        title="SUM-ASG, budget k: steps until convergence",
        configs=_budget_configs("sum", budgets),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("5n",),
    )


def figure8_spec(
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    n_values: Sequence[int] = (10, 20, 30, 40),
    trials: int = 30,
) -> FigureSpec:
    """Figure 8: MAX-ASG with budget k (avg & max steps vs agents)."""
    return FigureSpec(
        figure="fig8",
        title="MAX-ASG, budget k: steps until convergence",
        configs=_budget_configs("max", budgets),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("5n", "nlogn"),
    )
