"""Figure grids.

A :class:`FigureSpec` captures one of the paper's figures as a grid of
cells: one :class:`~repro.registry.ScenarioSpec` per series, run at
every ``n``.  The paper-scale grids (n = 10..100, 10000/5000 trials)
are exposed as ``paper_scale()``; the default grids are scaled down so
the benchmark suite runs in minutes while preserving every qualitative
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from ..registry.scenario import ScenarioSpec

__all__ = ["FigureSpec", "require_trials"]


def require_trials(trials: int) -> int:
    """``trials``, checked to be at least 1 (the one check the experiment,
    campaign and drain paths share; 0 would "complete" empty grids)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


@dataclass(frozen=True)
class FigureSpec:
    """A figure-style experiment grid: series (scenarios) over n."""

    figure: str
    title: str
    configs: Tuple[ScenarioSpec, ...]
    n_values: Tuple[int, ...]
    trials: int
    #: the reference envelope the paper draws, e.g. ("5n", lambda n: 5 * n)
    envelope: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require_trials(self.trials)

    def paper_scale(self) -> "FigureSpec":
        """The grid at the paper's sizes (n = 10..100, full trials)."""
        return replace(
            self,
            n_values=tuple(range(10, 101, 10)),
            trials=10_000 if self.figure in ("fig7", "fig8") else 5_000,
        )

    def scaled(self, n_values: Sequence[int], trials: int) -> "FigureSpec":
        """Copy of the spec with a custom grid size."""
        return replace(self, n_values=tuple(n_values), trials=trials)
