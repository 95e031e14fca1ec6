"""Move policies — who is allowed to move (Section 1.1).

A move policy selects, in every state, which unhappy agent performs a
move.  It does *not* choose the move itself ("we do not consider such
strong policies"): the moving agent plays a best response, with ties
broken by the dynamics engine.

Implemented policies:

* :class:`MaxCostPolicy` — the paper's *max cost policy*: the unhappy
  agent of highest cost moves (ties broken at random or by index).  The
  experimental section implements it exactly as described in §3.4.1: costs
  are computed, agents are checked in descending cost order, and the
  first agent with an improving move is selected.
* :class:`RandomPolicy` — §3.4.1's *random policy*: sample agents
  uniformly without replacement until an unhappy one is found.
* :class:`FirstUnhappyPolicy` — smallest-index unhappy agent
  (deterministic; useful for reproducible unit tests).
* :class:`RoundRobinPolicy` — cyclic scan starting after the last mover.
* :class:`ScriptedPolicy` — plays a fixed agent sequence (adversarial
  schedules for the counterexample instances).
* :class:`GreedyImprovementPolicy` — the *greedy/limited-deviation*
  variant (cf. Lenzner's greedy selfish network creation): the selected
  agent plays *an* improving move, not necessarily a best response.
* :class:`NoisyBestResponsePolicy` — ε-greedy wrapper: with probability
  ε a uniformly random unhappy agent plays a uniformly random improving
  move; otherwise the wrapped base policy selects as usual.  ε = 0 is
  *exactly* the base policy (same RNG stream, same trajectory).
* :class:`AdversarialPolicy` — replays a fixed ``(agent, move)``
  schedule, looping: the paper's cycle-forcing schedules (Theorems 2.16,
  3.3, 3.7, 4.3, 5.1/5.2) as an activation model, with each scheduled
  move checked to be a best response (or at least improving).

The scanning policies walk their agent order through
:func:`~repro.core.games.scan_best_responses` (re-exported here), which
announces the next agents to the distance backend in blocks of 1, 2, 4,
... up to :data:`SCAN_BLOCK_CAP` before pricing them: a scan that stops at its
first agent costs one ``D(G - u)`` rebuild, while a long one (the final
stability check prices every agent) shares one packed kernel pass per
block (see :mod:`repro.graphs.incremental`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.incremental import DistanceBackend
from .games import (
    EPS,
    SCAN_BLOCK_CAP,
    BestResponse,
    Game,
    _move_sort_key,
    _op_rank,
    scan_best_responses,
)
from .moves import Move
from .network import Network

__all__ = [
    "SCAN_BLOCK_CAP",
    "scan_best_responses",
    "first_improving",
    "MovePolicy",
    "MaxCostPolicy",
    "RandomPolicy",
    "FirstUnhappyPolicy",
    "RoundRobinPolicy",
    "ScriptedPolicy",
    "GreedyImprovementPolicy",
    "NoisyBestResponsePolicy",
    "AdversarialPolicy",
]


def first_improving(
    game: Game,
    net: Network,
    order: Iterable[int],
    backend: Optional[DistanceBackend] = None,
) -> Optional[BestResponse]:
    """Best response of the first agent in ``order`` that has an
    improving move, or ``None`` when all of them are happy."""
    for br in scan_best_responses(game, net, order, backend):
        if br.is_improving:
            return br
    return None


class MovePolicy:
    """Base class: pick the moving agent for the current state."""

    def reset(self) -> None:
        """Called by the dynamics engine at the start of a run."""

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Return the selected agent's best response, or ``None`` if the
        network is stable (no agent is unhappy).

        ``backend`` routes all distance queries (see
        :mod:`repro.graphs.incremental`); ``None`` means a fresh
        per-state memo, as everywhere in the game layer.
        """
        raise NotImplementedError

    def notify(self, agent: int) -> None:
        """Called after ``agent`` moved (lets stateful policies advance)."""


class MaxCostPolicy(MovePolicy):
    """Highest-cost unhappy agent moves; ties broken randomly or by index."""

    def __init__(self, tie_break: str = "random"):
        if tie_break not in ("random", "index"):
            raise ValueError("tie_break must be 'random' or 'index'")
        self.tie_break = tie_break

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Scan agents in descending cost order; first unhappy one moves."""
        costs = game.cost_vector(net, backend=backend)
        if self.tie_break == "random":
            # shuffle within equal-cost groups: sort by (-cost, random key)
            keys = rng.random(net.n)
            order = sorted(range(net.n), key=lambda u: (-costs[u], keys[u]))
        else:
            order = np.argsort(-costs, kind="stable")
        return first_improving(game, net, order, backend)


class RandomPolicy(MovePolicy):
    """Uniformly random unhappy agent (sampling without replacement)."""

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Sample agents uniformly without replacement until one is unhappy."""
        candidates = list(range(net.n))
        rng.shuffle(candidates)
        return first_improving(game, net, candidates, backend)


class FirstUnhappyPolicy(MovePolicy):
    """Smallest-index unhappy agent (fully deterministic)."""

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Scan ids in order; the first unhappy agent moves."""
        return first_improving(game, net, range(net.n), backend)


class RoundRobinPolicy(MovePolicy):
    """Cyclic scan starting just after the previous mover."""

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Cyclic scan starting after the previous mover."""
        n = net.n
        return first_improving(game, net, [(self._next + i) % n for i in range(n)], backend)

    def notify(self, agent: int) -> None:
        self._next = agent + 1


class ScriptedPolicy(MovePolicy):
    """Plays a predetermined agent schedule (adversarial scheduling).

    Each scheduled agent must be unhappy when its turn comes; otherwise
    ``select`` raises, which is exactly what the counterexample tests
    want to detect.  When the script is exhausted the policy reports
    stability (returns ``None``) so the dynamics engine stops.
    """

    def __init__(self, schedule: Sequence[int], strict: bool = True):
        self.schedule: List[int] = list(schedule)
        self.strict = strict
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Next scheduled agent moves; raises if it is happy (strict)."""
        if self._pos >= len(self.schedule):
            return None
        u = self.schedule[self._pos]
        br = game.best_responses(net, u, backend=backend)
        if not br.is_improving:
            if self.strict:
                raise RuntimeError(
                    f"scripted agent {u} (position {self._pos}) has no improving move"
                )
            return None
        return br

    def notify(self, agent: int) -> None:
        self._pos += 1


class GreedyImprovementPolicy(MovePolicy):
    """Any improving move, not just a best response.

    The greedy/limited-deviation variant of the dynamics (cf. Lenzner's
    greedy selfish network creation): the selected agent performs *an*
    improving move.  ``order`` controls which unhappy agent moves
    (``"index"``: smallest id; ``"random"``: uniform), ``move_choice``
    which of its improving moves it plays (``"first"``: canonical
    delete < swap < buy order, i.e. the least-commitment improving
    operation; ``"random"``: uniform over all improving moves).

    The mover's cost strictly decreases in every step — the trajectory
    invariant the property suite pins down — but the played move may
    save less than the best response would.
    """

    def __init__(self, order: str = "index", move_choice: str = "first"):
        if order not in ("index", "random"):
            raise ValueError("order must be 'index' or 'random'")
        if move_choice not in ("first", "random"):
            raise ValueError("move_choice must be 'first' or 'random'")
        self.order = order
        self.move_choice = move_choice

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """First unhappy agent in scan order plays one improving move."""
        candidates = list(range(net.n))
        if self.order == "random":
            rng.shuffle(candidates)
        br = first_improving(game, net, candidates, backend)
        if br is None:
            return None
        # the mover enumerates a second time: greedy wants every
        # improving move, and a BestResponse keeps only the best ones
        improving = game.improving_moves(net, br.agent, backend=backend)
        if self.move_choice == "random":
            move, cost = improving[int(rng.integers(len(improving)))]
        else:
            move, cost = min(
                improving, key=lambda mc: (_op_rank(mc[0]), _move_sort_key(mc[0]))
            )
        return BestResponse(br.agent, br.cost_before, cost, [move])


class NoisyBestResponsePolicy(MovePolicy):
    """ε-greedy activation: explore with probability ε, else delegate.

    With probability ``epsilon`` a uniformly random unhappy agent plays
    a uniformly random improving move (exploration); otherwise the
    wrapped ``base`` policy selects exactly as it would on its own.

    ``epsilon = 0`` short-circuits to the base policy *without touching
    the RNG*, so a seeded run is trajectory-for-trajectory identical to
    running the base policy directly — the property suite relies on
    this.  ``base`` must accept the ``backend`` keyword (all in-tree
    policies do).
    """

    def __init__(self, base: MovePolicy, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.base = base
        self.epsilon = float(epsilon)
        self._explored_last = False

    def reset(self) -> None:
        self.base.reset()
        self._explored_last = False

    def notify(self, agent: int) -> None:
        # a stateful base (round-robin pointer, scripted/adversarial
        # schedule position) must only advance past selections it made
        # itself — exploration steps are invisible to it
        if not self._explored_last:
            self.base.notify(agent)

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Explore with probability ε, else the base policy's choice."""
        self._explored_last = False
        if self.epsilon == 0.0:
            return self.base.select(game, net, rng, backend=backend)
        if float(rng.random()) >= self.epsilon:
            return self.base.select(game, net, rng, backend=backend)
        self._explored_last = True
        candidates = list(range(net.n))
        rng.shuffle(candidates)
        br = first_improving(game, net, candidates, backend)
        if br is None:
            return None
        improving = game.improving_moves(net, br.agent, backend=backend)
        move, cost = improving[int(rng.integers(len(improving)))]
        return BestResponse(br.agent, br.cost_before, cost, [move])


class AdversarialPolicy(MovePolicy):
    """Replays a cycle-forcing ``(agent, move)`` schedule, looping.

    This is the paper's adversarial scheduler as an activation model:
    the exact move sequence a proof traces (e.g.
    ``PaperInstance.cycle_moves()``) is played back ``loop`` times
    (``loop=None`` loops forever, so the run only stops via
    ``max_steps`` or cycle detection).

    Every scheduled move is validated when its turn comes:

    * ``require_best_response=True`` (default): the move must be among
      the agent's best responses — the claim the paper's best-response
      cycles make.
    * ``require_best_response=False``: the move must merely be strictly
      improving (a better-response schedule).

    A schedule that fails validation raises ``RuntimeError`` — exactly
    what a counterexample test wants to detect.  When the schedule is
    exhausted the policy reports stability (``None``) like
    :class:`ScriptedPolicy` does.
    """

    def __init__(
        self,
        schedule: Sequence[Tuple[int, Move]],
        loop: Optional[int] = 1,
        require_best_response: bool = True,
    ):
        if loop is not None and loop < 1:
            raise ValueError("loop must be >= 1 (or None for unbounded)")
        self.schedule: List[Tuple[int, Move]] = [(int(u), m) for u, m in schedule]
        self.loop = loop
        self.require_best_response = require_best_response
        self._pos = 0
        self._laps = 0

    def reset(self) -> None:
        self._pos = 0
        self._laps = 0

    def select(
        self,
        game: Game,
        net: Network,
        rng: np.random.Generator,
        backend: Optional[DistanceBackend] = None,
    ) -> Optional[BestResponse]:
        """Next scheduled move, validated against the current state."""
        if not self.schedule:
            return None
        if self.loop is not None and self._laps >= self.loop:
            return None
        u, move = self.schedule[self._pos]
        if self.require_best_response:
            br = game.best_responses(net, u, backend=backend)
            if not br.is_improving or move not in br.moves:
                raise RuntimeError(
                    f"scheduled move {move} of agent {u} (position {self._pos}, "
                    f"lap {self._laps}) is not a best response"
                )
            return BestResponse(u, br.cost_before, br.best_cost, [move])
        cur = game.current_cost(net, u, backend=backend)
        cost = game.evaluate_move(net, u, move, backend=backend)
        if cost >= cur - EPS:
            raise RuntimeError(
                f"scheduled move {move} of agent {u} (position {self._pos}, "
                f"lap {self._laps}) is not improving"
            )
        return BestResponse(u, cur, cost, [move])

    def notify(self, agent: int) -> None:
        self._pos += 1
        if self._pos >= len(self.schedule):
            self._pos = 0
            self._laps += 1
