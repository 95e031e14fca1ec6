"""Machine-checked verification of the counterexample instances.

Every figure instance ships with the claims its theorem makes; this
module re-derives those claims from scratch:

* :func:`verify_cycle` — checks that a move sequence is a
  better/best-response cycle: each move is admissible, strictly
  improving for its mover, (optionally) one of the mover's best
  responses, and the final state equals the initial one.
* :func:`verify_unhappy_sets` — checks "in state ``i`` exactly these
  agents are unhappy" (the ingredient of the *no-move-policy* claims:
  when only the cycle's mover is unhappy, every policy must select it).
* :func:`verify_not_weakly_acyclic` — the strongest property
  (Corollaries 3.6/4.2, Theorem 5.1): starting from the instance, *every*
  improving move of *every* unhappy agent leads back into the cycle's
  state set (up to isomorphism if requested), so no sequence of
  improving moves ever reaches a stable network.
* :func:`are_isomorphic` — backtracking graph isomorphism with
  degree/eccentricity pruning (sufficient for the paper's n <= 24).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.games import EPS, BilateralGame, Game
from ..core.moves import Move
from ..core.network import Network
from ..graphs import adjacency as adj
from ..statespace.expand import ownership_matters

__all__ = [
    "CycleReport",
    "verify_cycle",
    "verify_unhappy_sets",
    "verify_not_weakly_acyclic",
    "are_isomorphic",
    "verify_instance",
]


@dataclass
class CycleReport:
    """Result of verifying one cycle claim."""

    ok: bool
    steps: int
    improvements: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` with all failures unless ``ok``."""
        if not self.ok:
            raise AssertionError("cycle verification failed:\n" + "\n".join(self.failures))


def verify_cycle(
    game: Game,
    initial: Network,
    moves: Sequence[Tuple[int, Move]],
    require_best_response: bool = True,
    require_feasible: bool = True,
    close: str = "exact",
) -> CycleReport:
    """Verify that ``moves`` forms a better/best-response cycle.

    Checks, per step: the mover strictly improves; the move is among the
    mover's best responses when ``require_best_response``; for bilateral
    games the move is not blocked when ``require_feasible``.  Finally the
    last state must return to the first: with ``close="exact"`` the same
    edges (and, where the game cares, the same ownership); with
    ``close="isomorphic"`` a graph isomorphic to it (Theorem 5.1's cycle
    recurs only up to relabelling).
    """
    failures: List[str] = []
    improvements: List[float] = []
    net = initial.copy()
    for i, (agent, move) in enumerate(moves):
        before = game.current_cost(net, agent)
        if isinstance(game, BilateralGame) and require_feasible:
            blockers = game.blocking_agents(net, move)  # type: ignore[arg-type]
            if blockers:
                failures.append(
                    f"step {i}: move {move.describe(net)} blocked by "
                    f"{[net.label(b) for b in blockers]}"
                )
        if require_best_response:
            br = game.best_responses(net, agent)
            if not br.is_improving:
                failures.append(f"step {i}: agent {net.label(agent)} has no improving move")
            elif move not in br.moves:
                failures.append(
                    f"step {i}: move {move.describe(net)} is not among the best responses "
                    f"{[m.describe(net) for m in br.moves]}"
                )
        work = net.copy()
        move.apply(work)
        after = game.current_cost(work, agent)
        if not (after < before - EPS):
            failures.append(
                f"step {i}: move {move.describe(net)} does not improve "
                f"({before} -> {after})"
            )
        improvements.append(before - after)
        net = work
    own = ownership_matters(game)
    if close == "exact":
        if net.state_key(with_ownership=own) != initial.state_key(with_ownership=own):
            failures.append("cycle does not return to the initial state")
    elif close == "isomorphic":
        if are_isomorphic(net.A, initial.A) is None:
            failures.append("final state is not isomorphic to the initial state")
    else:
        raise ValueError("close must be 'exact' or 'isomorphic'")
    return CycleReport(ok=not failures, steps=len(moves), improvements=improvements, failures=failures)


def verify_unhappy_sets(
    game: Game,
    initial: Network,
    moves: Sequence[Tuple[int, Move]],
    claimed: Sequence[Sequence[int]],
) -> CycleReport:
    """Verify the per-state unhappy sets claimed by a proof."""
    failures: List[str] = []
    net = initial.copy()
    for i, (agent, move) in enumerate(moves):
        actual = set(game.unhappy_agents(net))
        expect = set(claimed[i])
        if actual != expect:
            failures.append(
                f"state {i}: unhappy agents {sorted(net.label(a) for a in actual)} "
                f"!= claimed {sorted(net.label(a) for a in expect)}"
            )
        move.apply(net)
    return CycleReport(ok=not failures, steps=len(moves), failures=failures)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _refinement_signature(A: np.ndarray, rounds: int = 3) -> List[Tuple]:
    """Per-vertex invariant: (degree, ecc, sorted neighbour signatures...)."""
    n = A.shape[0]
    deg = adj.degrees(A)
    D = adj.all_pairs_distances(A)
    ecc = D.max(axis=1)
    sig = [(int(deg[v]), float(ecc[v])) for v in range(n)]
    for _ in range(rounds):
        sig = [
            (sig[v], tuple(sorted(sig[w] for w in adj.neighbors(A, v))))
            for v in range(n)
        ]
    return sig


def are_isomorphic(A: np.ndarray, B: np.ndarray) -> Optional[List[int]]:
    """Backtracking isomorphism test; returns a mapping ``perm`` with
    ``B[perm[u], perm[v]] == A[u, v]`` or ``None``.

    Vertices are matched in an order that fails fast (rarest signature
    first).  Intended for the paper's instance sizes (n <= ~30).
    """
    n = A.shape[0]
    if B.shape[0] != n or adj.num_edges(A) != adj.num_edges(B):
        return None
    sigA = _refinement_signature(A)
    sigB = _refinement_signature(B)
    if sorted(map(repr, sigA)) != sorted(map(repr, sigB)):
        return None
    # candidate targets per vertex
    cands: List[List[int]] = [
        [w for w in range(n) if repr(sigB[w]) == repr(sigA[v])] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(cands[v]))
    mapping = [-1] * n
    used = [False] * n

    def bt(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in cands[v]:
            if used[w]:
                continue
            ok = True
            for u in range(n):
                if mapping[u] != -1 and A[v, u] != B[w, mapping[u]]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if bt(idx + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if bt(0):
        return mapping
    return None


# ---------------------------------------------------------------------------
# weak acyclicity refutation
# ---------------------------------------------------------------------------


def _all_improving_successors(game: Game, net: Network) -> List[Tuple[int, Move, Network]]:
    out = []
    for u in range(net.n):
        for move, _cost in game.improving_moves(net, u):
            nxt = net.copy()
            move.apply(nxt)
            out.append((u, move, nxt))
    return out


def verify_not_weakly_acyclic(
    game: Game,
    cycle_states: Sequence[Network],
    up_to_isomorphism: bool = False,
    best_response_only: bool = False,
) -> CycleReport:
    """Verify that no improving sequence escapes the cycle's state set.

    For every state in ``cycle_states`` (the last state, equal to the
    first, may be omitted), enumerate *all* improving moves of *all*
    agents (or only best responses when ``best_response_only``) and check
    every successor is again one of the cycle states — exactly (by state
    key) or up to isomorphism.  Together with the non-emptiness of the
    improving-move sets this certifies the game is **not weakly acyclic**
    from these states.
    """
    failures: List[str] = []
    own = ownership_matters(game)
    states = list(cycle_states)
    if len(states) >= 2 and states[0].state_key(own) == states[-1].state_key(own):
        states = states[:-1]
    keys = {s.state_key(own) for s in states}
    for i, net in enumerate(states):
        if best_response_only:
            succs = []
            for u in range(net.n):
                br = game.best_responses(net, u)
                for move in br.moves:
                    nxt = net.copy()
                    move.apply(nxt)
                    succs.append((u, move, nxt))
        else:
            succs = _all_improving_successors(game, net)
        if not succs:
            failures.append(f"state {i} is stable — the cycle claim is vacuous")
            continue
        for u, move, nxt in succs:
            if nxt.state_key(own) in keys:
                continue
            if up_to_isomorphism and any(
                are_isomorphic(nxt.A, s.A) is not None for s in states
            ):
                continue
            failures.append(
                f"state {i}: improving move {move.describe(net)} escapes the cycle"
            )
    return CycleReport(ok=not failures, steps=len(states), failures=failures)


def verify_instance(instance, require_best_response: Optional[bool] = None) -> CycleReport:
    """Convenience wrapper: verify a :class:`PaperInstance`'s cycle and,
    when present, its claimed unhappy sets."""
    if require_best_response is None:
        require_best_response = instance.best_response_cycle
    close = "isomorphic" if instance.name == "fig15" else "exact"
    rep = verify_cycle(
        instance.game,
        instance.network,
        instance.moves(),
        require_best_response=require_best_response,
        close=close,
    )
    if not rep.ok:
        return rep
    if instance.claimed_unhappy is not None:
        claimed_ids = [
            [instance.network.index(lbl) for lbl in state_claim]
            for state_claim in instance.claimed_unhappy
        ]
        rep2 = verify_unhappy_sets(
            instance.game, instance.network, instance.moves(), claimed_ids
        )
        if not rep2.ok:
            return rep2
    return rep
