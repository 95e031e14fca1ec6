"""Seeded sweep runner for the empirical study.

One *cell* = (scenario, n); one *trial* = a random initial network plus
a dynamics run.  Seeds derive from a single root ``SeedSequence`` so
every sweep is exactly reproducible, including under multiprocessing
(each trial's seed is independent of scheduling).

Everything instantiates through :data:`repro.registry.REGISTRY`: a cell
is a :class:`~repro.registry.ScenarioSpec`, so every registered game ×
policy × dynamics kind × topology × metric combination runs through the
same three functions — :func:`trial_jobs`, :func:`run_trial`,
:func:`run_cell` — with no per-component code here.

:func:`run_trial` returns a :class:`TrialRecord`: the run's steps and
status plus the scenario's registered per-trial metrics.

The runner follows the hpc-parallel guidance: the inner loop is the
vectorized best-response engine; parallelism is process-level over
trials (``n_jobs``), communication is one small record per trial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import ConvergenceStats
from ..core.games import Game
from ..core.network import Network
from ..core.policies import MovePolicy
from ..registry import REGISTRY, ScenarioSpec
from ..registry.builtin import DynamicsKind, TrialContext, TrialOutcome
from .config import FigureSpec, require_trials

__all__ = [
    "build_game",
    "build_policy",
    "build_initial",
    "build_dynamics",
    "resolve_n_jobs",
    "trial_jobs",
    "run_trial",
    "run_scenario",
    "run_cell",
    "run_figure",
    "TrialRecord",
    "FigureResult",
]

#: below this many trials a process pool costs more to spin up than the
#: cell takes to run serially, so the ``n_jobs=None`` default stays at 1.
POOL_MIN_TRIALS = 16


def resolve_n_jobs(n_jobs: Optional[int], trials: int) -> int:
    """Worker count for a cell: ``None`` means "use the machine".

    ``None`` resolves to ``os.cpu_count()`` (capped at ``trials``) for
    cells big enough to amortise pool startup, and to 1 for small ones.
    An explicit integer — including 1 — is always honoured, so serial
    runs remain one flag away.

    The ``REPRO_N_JOBS`` environment variable overrides the default for
    whole pipelines.  It must hold an integer; anything else raises a
    ``ValueError`` naming the variable (never a bare ``int()``
    traceback).  An empty (or whitespace-only) value is deliberately
    ignored — ``REPRO_N_JOBS=""`` behaves exactly like unset.  A worker
    count below 1, from either source, raises a ``ValueError`` naming it.
    """
    name = "n_jobs"
    if n_jobs is None:
        raw = os.environ.get("REPRO_N_JOBS", "")
        if raw.strip():
            name = "REPRO_N_JOBS"
            try:
                n_jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_N_JOBS must be an integer, got {raw!r}"
                ) from None
    if n_jobs is not None:
        if n_jobs < 1:
            raise ValueError(f"{name} must be at least 1, got {n_jobs}")
        return int(n_jobs)
    if trials < POOL_MIN_TRIALS:
        return 1
    return max(1, min(os.cpu_count() or 1, trials))


# ---------------------------------------------------------------------------
# Registry-backed builders
# ---------------------------------------------------------------------------


def build_game(cfg: ScenarioSpec, n: int) -> Game:
    """Instantiate the configured game for ``n`` agents."""
    return REGISTRY.build("game", cfg.game, cfg.params_for("game"), n=n)


def build_policy(cfg: ScenarioSpec) -> MovePolicy:
    """Instantiate the configured move policy."""
    return REGISTRY.build("policy", cfg.policy, cfg.params_for("policy"))


def build_initial(cfg: ScenarioSpec, n: int, seed: np.random.Generator) -> Network:
    """Draw the configured random initial network."""
    return REGISTRY.build("topology", cfg.topology, cfg.params_for("topology"),
                          n=n, rng=seed)


def build_dynamics(cfg: ScenarioSpec) -> DynamicsKind:
    """Instantiate the configured dynamics kind (activation model)."""
    return REGISTRY.build("dynamics", cfg.dynamics, cfg.params_for("dynamics"))


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def trial_jobs(
    cfg: ScenarioSpec, n: int, trials: int, seed: int, max_steps_factor: int = 50
) -> List[tuple]:
    """Per-trial job tuples for one (scenario, n) cell.

    Trial ``i``'s seed derives from ``SeedSequence(seed, cfg.digest(),
    n).spawn(trials)[i]`` — a pure function of ``(cfg, n, seed, i)``,
    independent of worker scheduling, sharding, or which other trials
    run in the same process.  This is the property the campaign store's
    resume/shard semantics rest on: running any subset of trials in any
    order produces exactly the per-trial outcomes of a full run.
    """
    max_steps = max_steps_factor * n
    root = np.random.SeedSequence(entropy=(seed, cfg.digest(), n))
    children = root.spawn(require_trials(trials))
    return [
        (cfg, n, max_steps, (tuple(np.atleast_1d(c.entropy).tolist()), c.spawn_key))
        for c in children
    ]


@dataclass(frozen=True)
class TrialRecord:
    """Extensible outcome of one trial.

    ``steps`` / ``status`` are the dynamics run's step count and status
    (``"converged"``, ``"cycled"`` under cycle-detecting dynamics, or
    ``"exhausted"`` at the step cap);
    ``metrics`` holds every metric the scenario requested, as
    JSON-serializable values keyed by registered metric name.
    ``rounds`` is filled by round-based dynamics kinds.
    """

    steps: int
    status: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    rounds: Optional[int] = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def extra_metrics(self) -> Dict[str, Any]:
        """Metrics beyond the implicit steps/status pair (for storage)."""
        return {k: v for k, v in self.metrics.items() if k not in ("steps", "status")}


def _execute(spec: ScenarioSpec, n: int, max_steps: int,
             rng: np.random.Generator) -> Tuple[TrialRecord, TrialOutcome]:
    """Shared trial body: build all components, run, evaluate metrics.

    Build order (initial network first, then game/policy) is part of
    the reproducibility contract — it fixes how the trial's RNG stream
    is consumed and therefore every historical trajectory.
    """
    net = build_initial(spec, n, rng)
    game = build_game(spec, n)
    dynamics = build_dynamics(spec)
    # round-based kinds activate every unhappy agent themselves — the
    # policy axis is inert there (``DynamicsKind.uses_policy``), so a
    # configured policy is not even built (building consumes no RNG, so
    # this cannot shift any trajectory either way)
    policy = build_policy(spec) if dynamics.uses_policy else None
    outcome = dynamics.run(game, net, policy, max_steps=max_steps, rng=rng)
    ctx = TrialContext(spec=spec, n=n, game=game, policy=policy, outcome=outcome)
    metrics = {
        name: REGISTRY.build("metric", name)(ctx) for name in spec.metrics
    }
    record = TrialRecord(
        steps=int(outcome.steps), status=outcome.status,
        metrics=metrics, rounds=outcome.rounds,
    )
    return record, outcome


def run_trial(args) -> TrialRecord:
    """Execute one trial job from :func:`trial_jobs`."""
    spec, n, max_steps, (entropy, spawn_key) = args
    ss = np.random.SeedSequence(entropy=list(entropy), spawn_key=spawn_key)
    rng = np.random.default_rng(ss)
    record, _ = _execute(spec, n, max_steps, rng)
    return record


def run_scenario(
    cfg: ScenarioSpec,
    n: int,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> Tuple[TrialRecord, TrialOutcome]:
    """Run a single scenario instance directly (no cell seeding).

    Convenience for the CLI and notebooks: seeds a fresh generator,
    draws one initial network and runs the configured dynamics.
    Returns both the metric record and the raw
    :class:`~repro.registry.TrialOutcome` (which carries the final
    network and the kind-specific result object).
    """
    rng = np.random.default_rng(seed)
    return _execute(cfg, n, max_steps if max_steps is not None else 50 * n, rng)


def run_cell(
    cfg: ScenarioSpec,
    n: int,
    trials: int,
    seed: int = 0,
    max_steps_factor: int = 50,
    n_jobs: Optional[int] = None,
) -> ConvergenceStats:
    """Run ``trials`` random instances of one (scenario, n) cell.

    ``max_steps_factor * n`` caps each run; the paper's empirical claim
    is < 8n steps, so the cap only triggers on genuinely divergent runs
    (none were ever observed, matching the paper).

    ``n_jobs=None`` (default) parallelises big cells over all cores —
    see :func:`resolve_n_jobs`; trial seeds are scheduling-independent,
    so the statistics are identical at every worker count.
    """
    n_jobs = resolve_n_jobs(n_jobs, trials)
    jobs = trial_jobs(cfg, n, trials, seed, max_steps_factor)
    stats = ConvergenceStats()
    if n_jobs <= 1:
        for job in jobs:
            rec = run_trial(job)
            stats.add(rec.steps, rec.converged)
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for rec in pool.map(run_trial, jobs, chunksize=8):
                stats.add(rec.steps, rec.converged)
    return stats


@dataclass
class FigureResult:
    """All series of one figure: series name -> {n -> ConvergenceStats}."""

    spec: FigureSpec
    series: Dict[str, Dict[int, ConvergenceStats]] = field(default_factory=dict)

    def mean_series(self, name: str) -> List[Tuple[int, float]]:
        """``(n, mean steps)`` points of one series."""
        return [(n, s.mean) for n, s in sorted(self.series[name].items())]

    def max_series(self, name: str) -> List[Tuple[int, float]]:
        """``(n, max steps)`` points of one series."""
        return [(n, float(s.max)) for n, s in sorted(self.series[name].items())]

    def overall_max_ratio(self) -> float:
        """max over all cells of (max steps) / n — the paper's envelope check."""
        worst = 0.0
        for per_n in self.series.values():
            for n, s in per_n.items():
                if s.steps:
                    worst = max(worst, s.max / n)
        return worst

    def non_converged_total(self) -> int:
        """Total runs that hit the step cap across all cells."""
        return sum(
            s.non_converged for per_n in self.series.values() for s in per_n.values()
        )


def run_figure(
    spec: FigureSpec,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    trials: Optional[int] = None,
    n_values: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Run a whole figure grid and return all its series.

    ``n_jobs=None`` (default) uses every core for cells large enough to
    amortise the pool (see :func:`resolve_n_jobs`); pass ``n_jobs=1``
    for strictly serial sweeps."""
    result = FigureResult(spec)
    use_trials = trials if trials is not None else spec.trials
    use_ns = tuple(n_values) if n_values is not None else spec.n_values
    for cfg in spec.configs:
        name = cfg.series_name()
        result.series[name] = {}
        for n in use_ns:
            result.series[name][n] = run_cell(cfg, n, use_trials, seed=seed, n_jobs=n_jobs)
    return result
