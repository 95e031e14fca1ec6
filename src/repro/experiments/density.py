"""Density analysis of ASG convergence times — §3.4.2's discussion.

The paper explains the SUM-ASG's "curious" convergence-time curve by the
ratio of present edges to all possible edges: dense starts (small n at
fixed budget k) give agents little to gain, sparse starts let perimeter
agents make big strides; the slowest cells sit at edge densities between
1/7 and 1/6.  This module measures that relationship directly:
:func:`density_sweep` runs a fixed budget over a range of n and reports
mean steps together with the density ``m / C(n,2) = 2k/(n-1)``, and
:func:`peak_density` locates the slowest cell.

At the paper's scale (n up to 100, 10000 trials) the peak matches their
band; at bench scale the curve's shape is visible but the band estimate
is noisy — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import ConvergenceStats
from ..registry.scenario import ScenarioSpec
from .runner import run_cell

__all__ = ["DensityPoint", "density_sweep", "peak_density"]


@dataclass
class DensityPoint:
    """One (n, density, steps) measurement of a density sweep."""

    n: int
    density: float
    stats: ConvergenceStats

    @property
    def mean_steps(self) -> float:
        """Mean convergence steps of the cell."""
        return self.stats.mean

    @property
    def mean_steps_per_n(self) -> float:
        """Mean steps normalised by n (the paper's envelope scale)."""
        return self.stats.mean / self.n


def density_sweep(
    budget: int,
    n_values: Sequence[int],
    mode: str = "sum",
    policy: str = "maxcost",
    trials: int = 20,
    seed: int = 0,
    n_jobs: int | None = None,
) -> List[DensityPoint]:
    """Convergence time of the budget-``k`` ASG across edge densities.

    The initial networks have ``m = n * k`` edges, so the density is
    ``2k / (n - 1)`` — sweeping ``n`` sweeps the density.
    """
    cfg = ScenarioSpec(game="asg", policy=policy, topology="budget",
                       game_params={"mode": mode},
                       topology_params={"budget": budget})
    out: List[DensityPoint] = []
    for n in n_values:
        if n <= 2 * budget:
            continue
        stats = run_cell(cfg, n, trials=trials, seed=seed, n_jobs=n_jobs)
        density = 2.0 * budget / (n - 1)
        out.append(DensityPoint(n=n, density=density, stats=stats))
    return out


def peak_density(points: Sequence[DensityPoint], per_n: bool = True) -> DensityPoint:
    """The sweep's slowest cell (by steps/n by default, matching the
    paper's normalisation against the linear envelope)."""
    if not points:
        raise ValueError("empty sweep")
    key = (lambda p: p.mean_steps_per_n) if per_n else (lambda p: p.mean_steps)
    return max(points, key=key)
