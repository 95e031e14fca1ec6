"""The sequential network creation process (Section 1.1).

:func:`run_dynamics` iterates: the move policy picks an unhappy agent,
that agent plays a best response (ties broken by the configured rule),
the network is updated.  The run ends when

* no agent is unhappy (**converged** — the network is stable, i.e. a
  pure Nash equilibrium of the underlying game),
* an exact state repeats while cycle detection is on (**cycled** — the
  trajectory entered a better-response cycle), or
* ``max_steps`` is exhausted (**exhausted**).

The trajectory records every move with its operation kind, so the
phase-structure analysis of Section 4.2.2 (deletion phase / swap phase /
cleanup) falls out of ``RunResult.move_counts`` /
``RunResult.kind_trajectory``.

:class:`SimultaneousDynamics` is the synchronous activation model: all
unhappy agents plan against the round-start state and the moves are
applied together, under an explicit collision rule (see the class
docstring).  Cycles are then detected on round-boundary states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..graphs.incremental import DistanceBackend, resolve_backend
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..statespace.encode import state_key
from .games import EPS, BestResponse, Game
from .moves import Buy, Delete, Move, Swap, move_kind
from .network import Network
from .policies import MovePolicy, scan_best_responses

__all__ = [
    "StepRecord",
    "RunResult",
    "RoundRecord",
    "SimultaneousResult",
    "SimultaneousDynamics",
    "run_dynamics",
    "run_simultaneous_dynamics",
    "choose_move",
]

# run-level telemetry: one span + a handful of counter updates per run
# (never per step), so the disabled-mode cost stays under the
# BENCH_obs.json overhead gate on the trajectory benches
_DYNAMICS_RUNS = obs_metrics.counter(
    "repro_dynamics_runs_total",
    "Completed dynamics runs by scheduler and outcome",
    ("dynamics", "status"))
_DYNAMICS_STEPS = obs_metrics.counter(
    "repro_dynamics_steps_total",
    "Applied moves across all dynamics runs",
    ("dynamics",))
_SEQ_STEPS = _DYNAMICS_STEPS.labels(dynamics="sequential")
_SIM_STEPS = _DYNAMICS_STEPS.labels(dynamics="simultaneous")
_ROUNDS_TOTAL = obs_metrics.counter(
    "repro_dynamics_rounds_total",
    "Simultaneous activation rounds across all runs")
_MOVES_SKIPPED = obs_metrics.counter(
    "repro_dynamics_moves_skipped_total",
    "Planned simultaneous moves dropped by the collision rule",
    ("reason",))
_SKIPPED = {reason: _MOVES_SKIPPED.labels(reason=reason)
            for reason in ("conflict", "blocked", "stale")}
_LAST_STEPS = obs_metrics.gauge(
    "repro_dynamics_last_steps",
    "Steps of the most recent run (merges as the fleet-wide max)",
    ("dynamics",))
_ROUND_MOVERS = obs_metrics.gauge(
    "repro_dynamics_round_movers",
    "Unhappy-set size of the most recent simultaneous round")


@dataclass
class StepRecord:
    """One step of the process: agent, move, and the cost it saved."""

    step: int
    agent: int
    move: Move
    kind: str
    cost_before: float
    cost_after: float

    @property
    def improvement(self) -> float:
        """Cost the mover saved in this step."""
        return self.cost_before - self.cost_after


@dataclass
class RunResult:
    """Outcome of a dynamics run."""

    status: str  # "converged" | "cycled" | "exhausted"
    steps: int
    final: Network
    trajectory: List[StepRecord] = field(default_factory=list)
    cycle_start: Optional[int] = None
    #: step index at which the revisit closing the cycle was observed.
    #: ``run_dynamics`` stops at the revisit, so there it equals
    #: ``steps``; cycles found *inside* a replayed trace (see
    #: :func:`repro.analysis.trajectories.annotate_cycle`) keep the full
    #: trajectory and record the revisit position here instead.
    cycle_end: Optional[int] = None

    @property
    def converged(self) -> bool:
        """Whether the run reached a stable network."""
        return self.status == "converged"

    @property
    def cycled(self) -> bool:
        """Whether a previously visited state recurred."""
        return self.status == "cycled"

    @property
    def move_counts(self) -> Counter:
        """Operation mix of the run (buy/delete/swap/multi counts)."""
        return Counter(rec.kind for rec in self.trajectory)

    @property
    def kind_trajectory(self) -> List[str]:
        """Operation kind (buy/delete/swap/multi) per step, in order."""
        return [rec.kind for rec in self.trajectory]

    @property
    def cycle_length(self) -> Optional[int]:
        """Length of the detected cycle, or ``None``.

        Works both for live detection (``run_dynamics`` with
        ``detect_cycles=True``, where the run stops at the revisit) and
        for cycles found after the fact in a stored/replayed trace,
        where the revisit position is ``cycle_end`` rather than the end
        of the trajectory.
        """
        if self.cycle_start is None:
            return None
        end = self.cycle_end if self.cycle_end is not None else self.steps
        return end - self.cycle_start


def choose_move(br: BestResponse, rng: np.random.Generator, tie_break: str = "random") -> Move:
    """Pick one move out of a best-response set.

    ``"random"`` implements the paper's uniform tie-breaking among best
    moves; ``"first"`` takes the deterministically first one (GBG
    preference order: delete < swap < buy, then lexicographic), which the
    paper also evaluates ("we prefer deletions before swaps before
    additions").
    """
    if not br.moves:
        raise ValueError("best response set is empty")
    if tie_break == "random":
        return br.moves[int(rng.integers(len(br.moves)))]
    if tie_break == "first":
        return br.moves[0]
    raise ValueError("tie_break must be 'random' or 'first'")


def run_dynamics(
    game: Game,
    initial: Network,
    policy: MovePolicy,
    max_steps: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    move_tie_break: str = "random",
    record_trajectory: bool = True,
    detect_cycles: bool = False,
    copy_initial: bool = True,
    backend: Optional[DistanceBackend] = None,
) -> RunResult:
    """Run the sequential-move process until stability (or not).

    Parameters
    ----------
    game, initial, policy:
        the game type, initial network ``G_0`` and move policy.
    max_steps:
        hard step limit; hitting it yields ``status == "exhausted"``.
    rng / seed:
        randomness source for the policy and tie-breaking.  Exactly one
        may be given; default is a fresh default_rng().
    move_tie_break:
        how the moving agent picks among equally good best responses.
    detect_cycles:
        hash every visited state (ownership-sensitive) and stop with
        ``status == "cycled"`` on the first revisit.
    copy_initial:
        work on a copy of ``initial`` (default) or mutate it in place.
    backend:
        the :class:`~repro.graphs.incremental.DistanceBackend` pricing
        every query; ``None`` (default) builds a fresh
        :class:`~repro.graphs.incremental.IncrementalBackend`, the memo
        of one pass of ``D(G - u)``, the ``D(G)`` derived from it and the
        best responses of the current state.
    """
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    net = initial.copy() if copy_initial else initial
    backend = resolve_backend(backend)
    policy.reset()
    trajectory: List[StepRecord] = []
    # visited states are keyed by the canonical bit-packed digest shared
    # with annotate_cycle and the statespace explorer (ownership-aware:
    # the asymmetric games' state notion, and a refinement of the SG's)
    seen: Dict[bytes, int] = {}
    if detect_cycles:
        seen[state_key(net)] = 0

    def finish(status: str, steps: int, cycle_start: Optional[int] = None) -> RunResult:
        _DYNAMICS_RUNS.inc(dynamics="sequential", status=status)
        _SEQ_STEPS.inc(steps)
        _LAST_STEPS.labels(dynamics="sequential").set(steps)
        return RunResult(
            status, steps, net, trajectory,
            cycle_start=cycle_start,
            cycle_end=steps if cycle_start is not None else None,
        )

    with obs_tracing.span("dynamics.run", game=type(game).__name__, n=net.n):
        for step in range(max_steps):
            br = policy.select(game, net, rng, backend=backend)
            if br is None:
                return finish("converged", step)
            move = choose_move(br, rng, move_tie_break)
            kind = move_kind(move, net)
            move.apply(net)
            policy.notify(br.agent)
            if record_trajectory:
                trajectory.append(
                    StepRecord(step, br.agent, move, kind, br.cost_before, br.best_cost)
                )
            if detect_cycles:
                key = state_key(net)
                if key in seen:
                    return finish("cycled", step + 1, cycle_start=seen[key])
                seen[key] = step + 1

        return finish("exhausted", max_steps)


# ---------------------------------------------------------------------------
# Simultaneous-move dynamics
# ---------------------------------------------------------------------------


def move_applicable(move: Move, net: Network) -> bool:
    """Whether ``move``'s structural preconditions hold on ``net``.

    Simultaneous rounds plan all moves against the round-start state; by
    the time a later agent's move is applied, earlier movers may have
    consumed the edge slots it relies on.  This predicate is checked
    *before* ``Move.apply`` so a conflicting move is skipped cleanly
    instead of raising halfway through a compound mutation.
    """
    u = move.agent
    if isinstance(move, Swap):
        return net.has_edge(u, move.old) and not net.has_edge(u, move.new)
    if isinstance(move, Buy):
        return not net.has_edge(u, move.target)
    if isinstance(move, Delete):
        return bool(net.owner[u, move.target])
    # StrategyChange: removals always target currently-incident edges,
    # so only the additions can conflict (an edge the other endpoint
    # created in the meantime).
    if move.bilateral:
        current = set(net.neighbors(u).tolist())
    else:
        current = set(net.owned_targets(u).tolist())
    return all(not net.A[u, v] for v in move.new_targets - current)


@dataclass
class RoundRecord:
    """One simultaneous round: who was activated and what happened.

    ``movers`` is the full unhappy set at the start of the round (every
    activated agent); ``applied`` the step records of moves that went
    through; ``skipped`` the ``(agent, reason)`` pairs dropped by the
    collision rule (``reason`` is ``"conflict"`` for structurally
    impossible moves, ``"blocked"`` for bilateral moves whose consent
    evaporated mid-round, and ``"stale"`` for moves that stopped
    improving).
    """

    round: int
    movers: List[int] = field(default_factory=list)
    applied: List[StepRecord] = field(default_factory=list)
    skipped: List[tuple] = field(default_factory=list)


@dataclass
class SimultaneousResult:
    """Outcome of a simultaneous-move run.

    ``steps`` counts *applied moves* (comparable to the sequential
    process); ``rounds`` counts activation rounds.  ``cycle_start`` /
    ``cycle_end`` are in rounds, referring to the round-boundary states.
    """

    status: str  # "converged" | "cycled" | "exhausted"
    rounds: int
    steps: int
    final: Network
    round_records: List[RoundRecord] = field(default_factory=list)
    cycle_start: Optional[int] = None
    cycle_end: Optional[int] = None

    @property
    def converged(self) -> bool:
        """Whether the run reached a stable network."""
        return self.status == "converged"

    @property
    def cycled(self) -> bool:
        """Whether a round-boundary state recurred."""
        return self.status == "cycled"

    @property
    def trajectory(self) -> List[StepRecord]:
        """All applied moves in application order."""
        return [rec for rr in self.round_records for rec in rr.applied]

    @property
    def collisions(self) -> int:
        """Total planned moves dropped by the collision rule."""
        return sum(len(rr.skipped) for rr in self.round_records)


class SimultaneousDynamics:
    """Synchronous activation: every unhappy agent moves in one round.

    Each round, best responses are planned for *all* unhappy agents
    against the round-start state, then applied in ascending agent id.
    Because earlier appliers mutate the network the planned moves can
    collide; the explicit collision rule decides what happens:

    * ``collision="forfeit"`` (default): before applying an agent's
      planned move, re-check it — a structurally impossible move is
      skipped (``"conflict"``), and one that no longer *strictly
      improves* the mover on the mid-round network is skipped as well
      (``"stale"``).  No agent ever ends a round worse off by its own
      move.
    * ``collision="force"``: apply every planned move that is still
      structurally possible, even if it stopped being improving — the
      classic simultaneous best-response process where agents commit
      blindly.  Only ``"conflict"`` and ``"blocked"`` skips occur.

    Consent is *admissibility*, not optimality: for games whose moves
    need other agents' agreement (``BilateralGame.feasible``), a
    bilateral strategy change whose consent evaporated mid-round is
    skipped as ``"blocked"`` under **both** collision rules — a round
    must never materialise an edge the game's own move definition could
    not produce.

    Cycle detection hashes round-boundary states (simultaneous dynamics
    cycle through *rounds*, not individual moves).
    """

    def __init__(
        self,
        collision: str = "forfeit",
        move_tie_break: str = "random",
        detect_cycles: bool = True,
    ):
        if collision not in ("forfeit", "force"):
            raise ValueError("collision must be 'forfeit' or 'force'")
        self.collision = collision
        self.move_tie_break = move_tie_break
        self.detect_cycles = detect_cycles

    def run(
        self,
        game: Game,
        initial: Network,
        max_rounds: int = 1_000,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        copy_initial: bool = True,
        backend: Optional[DistanceBackend] = None,
    ) -> SimultaneousResult:
        """Run rounds until stability, a repeated round state, or
        ``max_rounds``; ``backend`` as in :func:`run_dynamics`."""
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        if rng is None:
            rng = np.random.default_rng(seed)
        net = initial.copy() if copy_initial else initial
        backend = resolve_backend(backend)
        records: List[RoundRecord] = []
        seen: Dict[bytes, int] = {state_key(net): 0}
        steps = 0

        def finish(status: str, rounds: int, cycle_start=None, cycle_end=None):
            _DYNAMICS_RUNS.inc(dynamics="simultaneous", status=status)
            _SIM_STEPS.inc(steps)
            _LAST_STEPS.labels(dynamics="simultaneous").set(steps)
            return SimultaneousResult(
                status, rounds, steps, net, records,
                cycle_start=cycle_start, cycle_end=cycle_end,
            )

        with obs_tracing.span("dynamics.simultaneous",
                              game=type(game).__name__, n=net.n,
                              collision=self.collision):
            for rnd in range(max_rounds):
                planned: List[tuple] = []
                for br in scan_best_responses(game, net, range(net.n), backend):
                    if br.is_improving:
                        planned.append(
                            (br.agent, choose_move(br, rng, self.move_tie_break), br))
                if not planned:
                    return finish("converged", rnd)
                _ROUNDS_TOTAL.inc()
                _ROUND_MOVERS.set(len(planned))
                record = RoundRecord(rnd, movers=[u for u, _, _ in planned])
                consent = getattr(game, "feasible", None)
                for u, move, br in planned:
                    if not move_applicable(move, net):
                        record.skipped.append((u, "conflict"))
                        _SKIPPED["conflict"].inc()
                        continue
                    if (
                        consent is not None
                        and getattr(move, "bilateral", False)
                        and not consent(net, move)
                    ):
                        record.skipped.append((u, "blocked"))
                        _SKIPPED["blocked"].inc()
                        continue
                    cost_before = game.current_cost(net, u, backend=backend)
                    if self.collision == "forfeit":
                        new_cost = game.evaluate_move(net, u, move, backend=backend)
                        if new_cost >= cost_before - EPS:
                            record.skipped.append((u, "stale"))
                            _SKIPPED["stale"].inc()
                            continue
                    kind = move_kind(move, net)
                    move.apply(net)
                    cost_after = game.current_cost(net, u, backend=backend)
                    record.applied.append(
                        StepRecord(steps, u, move, kind, cost_before, cost_after)
                    )
                    steps += 1
                records.append(record)
                if self.detect_cycles:
                    key = state_key(net)
                    if key in seen:
                        return finish(
                            "cycled", rnd + 1, cycle_start=seen[key], cycle_end=rnd + 1
                        )
                    seen[key] = rnd + 1

            return finish("exhausted", max_rounds)


def run_simultaneous_dynamics(
    game: Game,
    initial: Network,
    max_rounds: int = 1_000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    collision: str = "forfeit",
    move_tie_break: str = "random",
    detect_cycles: bool = True,
    copy_initial: bool = True,
    backend: Optional[DistanceBackend] = None,
) -> SimultaneousResult:
    """Functional wrapper around :class:`SimultaneousDynamics`."""
    engine = SimultaneousDynamics(
        collision=collision, move_tie_break=move_tie_break, detect_cycles=detect_cycles
    )
    return engine.run(
        game, initial, max_rounds=max_rounds, rng=rng, seed=seed,
        copy_initial=copy_initial, backend=backend,
    )
