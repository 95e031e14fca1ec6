"""Experiment configuration objects.

A :class:`FigureSpec` captures one of the paper's figures as a grid of
cells; a cell is either a legacy :class:`ExperimentConfig` or a
registry-backed :class:`~repro.registry.ScenarioSpec` (the two convert
losslessly where their surfaces overlap — see
``ExperimentConfig.to_scenario``).  The paper-scale grids (n = 10..100,
10000/5000 trials) are exposed as ``paper_scale()``; the default grids
are scaled down so the benchmark suite runs in minutes while preserving
every qualitative comparison (see EXPERIMENTS.md).

``ExperimentConfig`` is the *backward-compat shim* of the scenario API:
its ``repr`` string is the pinned canonical form that seeds every
pre-registry trial, so the class (and its field order) must stay
byte-stable.  New axes — other games, greedy/noisy policies,
simultaneous rounds, tree/star topologies, extra metrics — live on
``ScenarioSpec`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..registry.builtin import resolve_alpha_spec, resolve_m_spec
from ..registry.scenario import ScenarioSpec, policy_series_label

__all__ = ["ExperimentConfig", "FigureSpec", "CellConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of an experiment grid.

    ``game``: ``"asg" | "gbg"``; ``mode``: ``"sum" | "max"``;
    ``policy``: ``"maxcost" | "random"``;
    ``topology``: ``"budget" | "random" | "rl" | "dl"``.

    For ``budget`` topologies ``budget`` is the per-agent owned-edge
    count; for ``random`` topologies ``m_edges`` is the edge count.
    ``alpha`` only applies to buy games and may be a callable-free
    float or one of the strings ``"n" | "n/2" | "n/4" | "n/10"``
    resolved against the current ``n``.
    """

    game: str
    mode: str
    policy: str
    topology: str = "budget"
    budget: Optional[int] = None
    m_edges: Optional[str] = None  # "n" | "2n" | "4n"
    alpha: Optional[str] = None  # "n" | "n/2" | "n/4" | "n/10" or float-string
    label: str = ""

    def resolve_alpha(self, n: int) -> float:
        """Edge price for ``n`` agents (resolves "n/4"-style specs)."""
        if self.alpha is None:
            raise ValueError("config has no alpha")
        return resolve_alpha_spec(self.alpha, n)

    def resolve_m(self, n: int) -> int:
        """Edge count for ``n`` agents (resolves "2n"-style specs and
        plain integer strings)."""
        if self.m_edges is None:
            raise ValueError("config has no m_edges")
        return resolve_m_spec(self.m_edges, n)

    def series_name(self) -> str:
        """Legend label in the paper's plotting style.

        The policy part is derived from the registered policy name
        ("maxcost" is spelled "max cost" as in the paper's legends),
        so registry-only policies label their series correctly.
        """
        if self.label:
            return self.label
        bits = []
        if self.budget is not None:
            bits.append(f"k={self.budget}")
        if self.m_edges is not None:
            bits.append(f"m={self.m_edges}")
        if self.alpha is not None:
            bits.append(f"a={self.alpha}")
        if self.topology in ("rl", "dl"):
            bits.append(self.topology)
        bits.append(policy_series_label(self.policy))
        return ", ".join(bits)

    def scenario_axis(self, category: str) -> Tuple[str, Dict[str, object]]:
        """This config's ``(component name, params)`` for one axis.

        The per-axis view keeps the legacy builders lazy: asking for
        the game of a config with an incomplete topology works, exactly
        as it did pre-registry.  ``alpha`` is attached only to games
        that declare it (the legacy builders ignored it elsewhere).
        """
        from ..registry.base import REGISTRY

        if category == "game":
            params: Dict[str, object] = {"mode": self.mode}
            if self.alpha is not None and REGISTRY.get("game", self.game).param("alpha"):
                params["alpha"] = self.alpha
            return self.game, params
        if category == "policy":
            return self.policy, {}
        if category == "dynamics":
            return "sequential", {}
        if category == "topology":
            params = {}
            if self.topology == "budget" and self.budget is not None:
                params["budget"] = self.budget
            if self.topology == "random" and self.m_edges is not None:
                params["m_edges"] = self.m_edges
            return self.topology, params
        raise ValueError(f"unknown axis {category!r}")

    def to_scenario(self) -> ScenarioSpec:
        """The equivalent :class:`~repro.registry.ScenarioSpec`.

        The conversion is lossless for every config the legacy surface
        could actually run: the spec validates against the registry
        (unknown games/policies/topologies and missing required
        parameters raise ``ValueError``), maps back via
        ``ScenarioSpec.as_experiment_config()``, and — critically —
        produces the *same seed digest* as the pre-registry
        ``crc32(repr(config))``, so trials, golden fixtures and
        campaign stores are unchanged.  (``alpha`` set on a game that
        does not price edges is dropped, as the legacy builders also
        ignored it.)
        """
        game, game_params = self.scenario_axis("game")
        topology, topology_params = self.scenario_axis("topology")
        return ScenarioSpec(
            game=game,
            policy=self.policy,
            topology=topology,
            game_params=game_params,
            topology_params=topology_params,
            label=self.label,
        )


#: one grid cell's configuration: the legacy shim or a registry spec.
CellConfig = Union[ExperimentConfig, ScenarioSpec]


@dataclass(frozen=True)
class FigureSpec:
    """A figure-style experiment grid: series (cell configs) over n.

    ``configs`` entries may be legacy :class:`ExperimentConfig` objects
    (the paper's six figures) or :class:`~repro.registry.ScenarioSpec`
    objects (anything the registry can express); the runner and the
    campaign store treat both identically.
    """

    figure: str
    title: str
    configs: Tuple[CellConfig, ...]
    n_values: Tuple[int, ...]
    trials: int
    #: the reference envelope the paper draws, e.g. ("5n", lambda n: 5 * n)
    envelope: Tuple[str, ...] = ()

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
