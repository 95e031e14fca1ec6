"""A deliberately naive reference model of every game's strategy space.

Written straight from the definitions and independent of the pricing
code under test: each candidate move is turned into the post-move
network by hand and priced with a plain-Python BFS.  This module imports
nothing from ``repro.core.games``, ``repro.core.best_response`` or
``repro.graphs``; it never calls ``Game.current_cost`` or applies a
``Move``.  It reads only ``net.A`` and ``net.owner`` and builds ``Move``
values for comparison.

The games, with the canonical move order the code under test must
reproduce (seeded policies index into move lists, so order is
behaviour):

* **SG / ASG** (Alon et al.; Mihalák & Schlegel): ``u`` swaps one
  incident edge (SG) or one edge it owns (ASG) ``{u, v}`` for
  ``{u, w}``, ``w`` a non-neighbour — ``v`` ascending, then ``w``
  ascending.  No edge cost.  With ``max_swaps = k > 1`` there follow the
  changes replacing ``2..k`` movable edges at once: by count, then
  removed set, then added set, each in ``itertools.combinations`` order.
* **GBG** (Lenzner): buy ``{u, w}`` (``w`` ascending), then per owned
  ``v`` ascending: delete ``{u, v}``, then swap it to each ``w``.
  ``u`` pays ``alpha`` per owned edge.
* **Coop** (Demaine et al., cooperative cost sharing): the GBG's moves;
  per edge the builder pays ``owner_share * alpha`` and the other
  endpoint the rest.
* **BG** (Fabrikant et al.): any owned-target set ``S`` other than the
  current one — by size, then lexicographically.  ``S`` ranges over
  vertices without an edge owned towards ``u``: the network is simple,
  so a second edge parallel to an incoming one cannot exist.
* **Bilateral** (Corbo & Parkes): any neighbourhood ``S`` other than the
  current one (same order) at ``alpha / 2`` per incident edge.  A move
  is a strategy change that lowers ``u``'s cost and that no newly added
  neighbour blocks, i.e. none of their costs strictly rises.

A created edge must be an edge of the host graph, when there is one.
*Greedy* deviations (Lenzner, *Greedy Selfish Network Creation*) change
at most one edge: at most one neighbour added and at most one removed.
The BG's greedy deviations are the GBG's moves.

Costs compare with the ``EPS = 1e-9`` tolerance of the code under test.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import FrozenSet, Iterator, List, NamedTuple, Tuple

from repro.core.moves import Buy, Delete, Move, StrategyChange, Swap

__all__ = [
    "EPS",
    "State",
    "Reference",
    "state_of",
    "collect_best",
    "enumerate_states",
]

EPS = 1e-9
INF = math.inf

KINDS = ("sg", "asg", "gbg", "coop", "bg", "bilateral")


class State(NamedTuple):
    """A network: ``n`` vertices and its edges as ``(owner, other)``
    pairs (each undirected edge appears once)."""

    n: int
    owned: FrozenSet[Tuple[int, int]]

    def neighbors(self, u: int) -> List[int]:
        return sorted({b for a, b in self.owned if a == u}
                      | {a for a, b in self.owned if b == u})

    def owned_by(self, u: int) -> List[int]:
        return sorted(b for a, b in self.owned if a == u)

    def owning_towards(self, u: int) -> List[int]:
        return sorted(a for a, b in self.owned if b == u)


def state_of(net) -> State:
    """The :class:`State` of a ``repro`` network (reads ``net.owner``)."""
    n = len(net.A)
    return State(n, frozenset((a, b) for a in range(n) for b in range(n)
                              if net.owner[a][b]))


def _without(state: State, u: int, v: int) -> State:
    return State(state.n, state.owned - {(u, v), (v, u)})


def _with(state: State, u: int, v: int) -> State:
    return State(state.n, state.owned | {(u, v)})


def distances(state: State, source: int) -> List[float]:
    """Hop distances from ``source`` (``inf`` where unreachable)."""
    nbrs = [[] for _ in range(state.n)]
    for a, b in state.owned:
        nbrs[a].append(b)
        nbrs[b].append(a)
    dist = [INF] * state.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if dist[y] == INF:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def preference(move: Move) -> tuple:
    """The paper's tie order: deletions, swaps, buys, then any other
    strategy change; within a kind by the touched vertices."""
    if isinstance(move, Delete):
        return (0, move.target)
    if isinstance(move, Swap):
        return (1, move.old, move.new)
    if isinstance(move, Buy):
        return (2, move.target)
    return (3, tuple(sorted(move.new_targets)))


def collect_best(cost_before: float, scored) -> Tuple[float, List[Move]]:
    """``(best cost, best moves)`` of a ``(move, cost)`` stream under the
    sequential tie rule: a cost more than ``EPS`` below the running best
    replaces it, one within ``EPS`` of it joins it.  ``(cost_before,
    [])`` unless the best is more than ``EPS`` below ``cost_before``."""
    best, ties = INF, []
    for move, cost in scored:
        if cost < best - EPS:
            best, ties = cost, [move]
        elif cost <= best + EPS:
            ties.append(move)
    if not ties or best >= cost_before - EPS:
        return cost_before, []
    return best, sorted(ties, key=preference)


def _subsets(pool, current) -> Iterator[FrozenSet[int]]:
    """Every subset of ``pool`` except ``current``: by size, then
    lexicographically."""
    for r in range(len(pool) + 1):
        for S in itertools.combinations(pool, r):
            if frozenset(S) != current:
                yield frozenset(S)


def _connected(state: State) -> bool:
    return INF not in distances(state, 0)


def enumerate_states(n: int, with_ownership: bool) -> Iterator[State]:
    """Every connected network on ``n`` labelled vertices: each pair is
    absent, or an edge owned by either endpoint (by its smaller one when
    ownership is not part of the state)."""
    pairs = list(itertools.combinations(range(n), 2))
    options = ((), ((0, 1),), ((1, 0),)) if with_ownership else ((), ((0, 1),))
    for choice in itertools.product(options, repeat=len(pairs)):
        owned = frozenset((p[i], p[j]) for p, c in zip(pairs, choice) for i, j in c)
        state = State(n, owned)
        if _connected(state):
            yield state


class Reference:
    """One game, defined naively.

    ``kind`` is one of ``sg``, ``asg``, ``gbg``, ``coop``, ``bg`` or
    ``bilateral``; ``host`` is an ``n x n`` boolean matrix or ``None``.
    """

    def __init__(self, kind: str, mode: str, alpha: float = 0.0, host=None,
                 max_swaps: int = 1, owner_share: float = 0.5):
        if kind not in KINDS:
            raise ValueError(f"unknown game kind {kind!r}")
        self.kind, self.mode, self.alpha = kind, mode, float(alpha)
        self.host, self.max_swaps, self.owner_share = host, max_swaps, owner_share

    @classmethod
    def of(cls, game) -> "Reference":
        """The reference for a ``repro`` game, read from its settings."""
        kind = {"SG": "sg", "ASG": "asg", "GBG": "gbg", "CoopGBG": "coop",
                "BG": "bg", "BBG": "bilateral"}[game.name]
        return cls(kind, game.mode.value, game.alpha, game.host,
                   getattr(game, "max_swaps", 1), getattr(game, "owner_share", 0.5))

    # -- costs ---------------------------------------------------------------
    def cost(self, state: State, u: int) -> float:
        """``u``'s edge cost plus its SUM or MAX distance cost."""
        dist = distances(state, u)
        distance_cost = (sum(dist) if self.mode == "sum" else max(dist)) if state.n > 1 else 0
        owned = len(state.owned_by(u))
        incoming = len(state.owning_towards(u))
        if self.kind in ("sg", "asg"):
            edge_cost = 0.0
        elif self.kind in ("gbg", "bg"):
            edge_cost = self.alpha * owned
        elif self.kind == "coop":
            edge_cost = self.alpha * (self.owner_share * owned
                                      + (1 - self.owner_share) * incoming)
        else:
            edge_cost = self.alpha / 2 * (owned + incoming)
        return edge_cost + distance_cost

    # -- strategy spaces -----------------------------------------------------
    def _may_create(self, u: int, w: int) -> bool:
        return u != w and (self.host is None or bool(self.host[u][w]))

    def _single_swaps(self, state: State, u: int, sources) -> Iterator[Tuple[Move, State]]:
        nbrs = state.neighbors(u)
        for v in sources:
            for w in range(state.n):
                if w not in nbrs and self._may_create(u, w):
                    yield Swap(u, v, w), _with(_without(state, u, v), u, w)

    def _multi_swaps(self, state: State, u: int, sources) -> Iterator[Tuple[Move, State]]:
        nbrs = state.neighbors(u)
        pool = [w for w in range(state.n) if w not in nbrs and self._may_create(u, w)]
        for k in range(2, self.max_swaps + 1):
            for removed in itertools.combinations(sources, k):
                for added in itertools.combinations(pool, k):
                    after = state
                    for v in removed:
                        after = _without(after, u, v)
                    for w in added:
                        after = _with(after, u, w)
                    if self.kind == "sg":
                        move = StrategyChange(u, frozenset(after.neighbors(u)), bilateral=True)
                    else:
                        move = StrategyChange(u, frozenset(after.owned_by(u)))
                    yield move, after

    def _single_edge_buys(self, state: State, u: int) -> Iterator[Tuple[Move, State]]:
        """The GBG's moves: buys, then per owned edge its delete and swaps."""
        nbrs = state.neighbors(u)
        for w in range(state.n):
            if w not in nbrs and self._may_create(u, w):
                yield Buy(u, w), _with(state, u, w)
        for v in state.owned_by(u):
            yield Delete(u, v), _without(state, u, v)
            yield from self._single_swaps(state, u, [v])

    def deviations(self, state: State, u: int) -> Iterator[Tuple[Move, State]]:
        """Every strategy change of ``u`` with the network after it, in the
        canonical order (for the bilateral game before any consent)."""
        if self.kind in ("sg", "asg"):
            sources = state.neighbors(u) if self.kind == "sg" else state.owned_by(u)
            yield from self._single_swaps(state, u, sources)
            yield from self._multi_swaps(state, u, sources)
        elif self.kind in ("gbg", "coop"):
            yield from self._single_edge_buys(state, u)
        elif self.kind == "bg":
            owned, incoming = state.owned_by(u), state.owning_towards(u)
            kept = frozenset((a, b) for a, b in state.owned if a != u)
            pool = [w for w in range(state.n)
                    if w not in incoming and (w in owned or self._may_create(u, w))]
            for S in _subsets(pool, frozenset(owned)):
                yield StrategyChange(u, S), State(state.n, kept | {(u, w) for w in S})
        else:
            nbrs = state.neighbors(u)
            others = frozenset(e for e in state.owned if u not in e)
            pool = [w for w in range(state.n)
                    if w in nbrs or self._may_create(u, w)]
            for S in _subsets(pool, frozenset(nbrs)):
                # an edge that stays keeps its owner; new ones are u's
                stays = {e for e in state.owned if u in e and (e[0] in S or e[1] in S)}
                after = State(state.n, others | stays
                              | {(u, w) for w in S if w not in nbrs})
                yield StrategyChange(u, S, bilateral=True), after

    def _consented(self, state: State, u: int, after: State) -> bool:
        """No newly added neighbour's cost strictly rises."""
        added = set(after.neighbors(u)) - set(state.neighbors(u))
        return all(self.cost(after, v) <= self.cost(state, v) + EPS for v in added)

    def scored(self, state: State, u: int, greedy: bool = False) -> List[Tuple[Move, float]]:
        """``(move, u's cost after it)`` over the game's move set — for
        the bilateral game its feasible improving changes — or over the
        greedy deviations."""
        if greedy and self.kind == "bg":
            moves = self._single_edge_buys(state, u)
        else:
            moves = self.deviations(state, u)
        before = self.cost(state, u)
        out = []
        for move, after in moves:
            if greedy and not self._single_edge(state, u, after):
                continue
            cost = self.cost(after, u)
            if self.kind == "bilateral" and not (
                cost < before - EPS and self._consented(state, u, after)
            ):
                continue
            out.append((move, cost))
        return out

    @staticmethod
    def _single_edge(state: State, u: int, after: State) -> bool:
        old, new = set(state.neighbors(u)), set(after.neighbors(u))
        return len(new - old) <= 1 and len(old - new) <= 1

    # -- the derived questions -------------------------------------------------
    def improving(self, state: State, u: int, greedy: bool = False) -> List[Tuple[Move, float]]:
        before = self.cost(state, u)
        return [(m, c) for m, c in self.scored(state, u, greedy) if c < before - EPS]

    def best_response(self, state: State, u: int) -> Tuple[float, float, List[Move]]:
        """``(cost before, best cost, best moves)``."""
        before = self.cost(state, u)
        best, moves = collect_best(before, self.scored(state, u))
        return before, best, moves

    def is_stable(self, state: State, greedy: bool = False) -> bool:
        return not any(self.improving(state, u, greedy) for u in range(state.n))

    def census(self, n: int, greedy: bool = False) -> Tuple[int, List[State]]:
        """``(number of connected states, the stable ones)`` at size ``n``,
        with ownership part of the state except in the SG and the
        bilateral game."""
        with_ownership = self.kind not in ("sg", "bilateral")
        states = list(enumerate_states(n, with_ownership))
        return len(states), [s for s in states if self.is_stable(s, greedy)]
