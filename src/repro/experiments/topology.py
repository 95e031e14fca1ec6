"""Figures 12 and 14 — initial-topology comparison (Sections 4.2.2).

Three starting topologies at ``m = n - 1`` edges:

* ``random`` — the paper's random spanning-tree-based networks with
  ``n`` edges (we use exactly the paper's ``m = n`` setting);
* ``rl`` (random line) — a path with uniform per-edge ownership;
* ``dl`` (directed line) — a path whose ownership forms a directed path.

Headline observations:

* SUM (Figure 12): topology impact is marginal (within ~2x); ``dl`` is
  *fastest* under both policies — the opposite of the authors' prior
  expectation; max cost <= random throughout.
* MAX (Figure 14): topology matters more (up to ~5x) and the order
  flips: random < rl < dl; alpha has almost no influence; the two
  policies perform almost identically.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..registry.scenario import ScenarioSpec
from .config import FigureSpec

__all__ = ["figure12_spec", "figure14_spec", "TOPOLOGIES"]

TOPOLOGIES: Tuple[str, ...] = ("random", "rl", "dl")


def _topo_configs(mode: str, alphas: Sequence[str], topologies: Sequence[str]) -> Tuple[ScenarioSpec, ...]:
    return tuple(
        ScenarioSpec(game="gbg", policy=policy, topology=topo,
                     game_params={"mode": mode, "alpha": a},
                     topology_params={"m_edges": "n"} if topo == "random" else {})
        for policy in ("maxcost", "random")
        for topo in topologies
        for a in alphas
    )


def figure12_spec(
    alphas: Sequence[str] = ("n/10", "n"),
    topologies: Sequence[str] = TOPOLOGIES,
    n_values: Sequence[int] = (10, 20, 30),
    trials: int = 20,
) -> FigureSpec:
    """Figure 12: SUM-GBG starting-topology comparison (max steps)."""
    return FigureSpec(
        figure="fig12",
        title="SUM-GBG: starting topologies random/rl/dl",
        configs=_topo_configs("sum", alphas, topologies),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("3n",),
    )


def figure14_spec(
    alphas: Sequence[str] = ("n/10", "n"),
    topologies: Sequence[str] = TOPOLOGIES,
    n_values: Sequence[int] = (10, 20, 30),
    trials: int = 20,
) -> FigureSpec:
    """Figure 14: MAX-GBG starting-topology comparison (max steps)."""
    return FigureSpec(
        figure="fig14",
        title="MAX-GBG: starting topologies random/rl/dl",
        configs=_topo_configs("max", alphas, topologies),
        n_values=tuple(n_values),
        trials=trials,
        envelope=("6n",),
    )
