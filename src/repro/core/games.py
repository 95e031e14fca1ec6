"""The game types of Section 1.1: SG, ASG, GBG, BG and the bilateral game.

Each game object is stateless configuration (distance mode, edge price
``alpha``, optional host graph); the network is passed to every call.
The central API:

* :meth:`Game.current_cost`     — ``c_G(u)``
* :meth:`Game.candidate_moves`  — all admissible strategy-changes of ``u``
* :meth:`Game.improving_moves`  — those that strictly decrease ``u``'s cost
* :meth:`Game.best_responses`   — the set of *best possible* moves
* :meth:`Game.is_unhappy`       — whether an improving move exists
* :meth:`Game.best_responses_block` / :meth:`Game.improving_moves_block`
  — the same for many ``(network, agent)`` pairs at once

The games whose moves change one edge (SG, ASG, GBG, coop) have one
enumeration, :func:`~repro.core.best_response.price_single_edge`, which
prices a block of pairs in one numpy pass over their stacked
``D(G - u)``; a single pair, as every scan asks, is its one-pair case.

Host graphs (Corollaries 3.6 and 4.2) restrict which edges may ever be
created: a move is admissible only if every edge it creates is an edge
of the host graph.

All distance-dependent methods accept an optional ``backend`` — a
:class:`repro.graphs.incremental.DistanceBackend` — through which every
APSP/deviation query is routed.  ``None`` (the default) means a fresh
:class:`~repro.graphs.incremental.IncrementalBackend`, resolved once by
the outermost public method and handed down; a dynamics run or census
passes its own, which reuses the distances of the current network state
across calls and memoises whole best responses per agent for that state
(the block entry points do not consult that memo).

``c_G(u)`` is priced one way: from ``D(G - u)``, like every deviation of
``u`` (its current neighbourhood is one more strategy).  ``D(G)`` serves
only :meth:`Game.cost_vector`, which callers needing many agents' costs
read instead.

Tolerance: costs are sums of integers and multiples of ``alpha``; all
strict comparisons use ``EPS = 1e-9``.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import adjacency as adj
from ..graphs import incremental
from ..graphs.incremental import DistanceBackend, resolve_backend
from .best_response import DeviationEvaluator, SingleEdgeBlock, price_single_edge
from .costs import (
    EQUAL_SPLIT,
    OWNER_PAYS,
    SWAP_EDGE_COST,
    DistanceMode,
    EdgeCostRule,
    SharedEdgeCostRule,
)
from .moves import Buy, Delete, Move, StrategyChange, Swap
from .network import Network

__all__ = [
    "EPS",
    "SCAN_BLOCK_CAP",
    "BestResponse",
    "scan_best_responses",
    "Game",
    "SwapGame",
    "AsymmetricSwapGame",
    "GreedyBuyGame",
    "CooperativeBuyGame",
    "BuyGame",
    "BilateralGame",
]

EPS = 1e-9

#: GBG tie preference (Section 4.2.1): deletions before swaps before buys.
_OP_RANK = {"delete": 0, "swap": 1, "buy": 2, "multi": 3}


def _op_rank(move: Move) -> int:
    if isinstance(move, Delete):
        return _OP_RANK["delete"]
    if isinstance(move, Swap):
        return _OP_RANK["swap"]
    if isinstance(move, Buy):
        return _OP_RANK["buy"]
    return _OP_RANK["multi"]


@dataclass
class BestResponse:
    """Result of a best-response computation for one agent.

    ``moves`` lists *all* admissible moves achieving ``best_cost``
    (within ``EPS``), ordered deterministically: by the paper's GBG
    operation preference (delete < swap < buy), then by move fields.
    Empty iff no admissible move improves on ``cost_before``.
    """

    agent: int
    cost_before: float
    best_cost: float
    moves: List[Move] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Cost saved by a best move (0 when no improving move exists)."""
        return self.cost_before - self.best_cost

    @property
    def is_improving(self) -> bool:
        """Whether the agent has any strictly improving move."""
        return bool(self.moves) and self.best_cost < self.cost_before - EPS


def _collect_best(
    agent: int,
    cost_before: float,
    scored: Iterable[Tuple[Move, float]],
) -> BestResponse:
    best = np.inf
    best_moves: List[Tuple[Move, float]] = []
    for move, cost in scored:
        if cost < best - EPS:
            best = cost
            best_moves = [(move, cost)]
        elif cost <= best + EPS:
            best_moves.append((move, cost))
    if not best_moves or best >= cost_before - EPS:
        return BestResponse(agent, cost_before, cost_before, [])
    ordered = sorted(best_moves, key=lambda mc: (_op_rank(mc[0]), _move_sort_key(mc[0])))
    return BestResponse(agent, cost_before, best, [m for m, _ in ordered])


def _move_sort_key(move: Move):
    if isinstance(move, Swap):
        return (move.old, move.new)
    if isinstance(move, (Buy, Delete)):
        return (move.target, -1)
    return (tuple(sorted(move.new_targets)), -2)


def _is_single_edge_change(net: Network, move: Move) -> bool:
    """Whether ``move`` is a *greedy* deviation (Lenzner, *Greedy Selfish
    Network Creation*): it buys, deletes or swaps at most one edge.

    ``Buy``/``Delete``/``Swap`` objects are single-edge by construction;
    a ``StrategyChange`` qualifies iff it adds at most one target and
    removes at most one, relative to the mover's current strategy.
    """
    if isinstance(move, (Swap, Buy, Delete)):
        return True
    if isinstance(move, StrategyChange):
        u = move.agent
        if move.bilateral:
            old = set(net.neighbors(u).tolist())
        else:
            old = set(net.owned_targets(u).tolist())
        new = set(move.new_targets)
        return len(new - old) <= 1 and len(old - new) <= 1
    return False


def _collect_best_rows(
    agents: Sequence[int],
    costs_before: Sequence[float],
    costs: np.ndarray,
    starts: Sequence[int],
    make: Callable[[int], Move],
) -> List[BestResponse]:
    """The best response of every row of a block: :func:`_collect_best`'s
    sequential rule, decided row-wise without a Python loop over costs.

    Row ``k`` is agent ``agents[k]``'s cost stream
    ``costs[starts[k]:starts[k + 1]]`` and ``costs_before[k]`` its cost
    now; ``make(e)`` builds the move of flat entry ``e``.  Let ``g`` be
    a row's minimum.  Unless some cost of the row lies in
    ``(g, g + 2*EPS]``, the sequential rule keeps exactly the entries
    costing ``g`` — the first of them resets the running best, the
    others tie it, and every other cost is more than ``EPS`` above it —
    so only they are handed to :func:`_collect_best`, which orders
    them.  A row with such a near-tie hands it its whole stream.  Moves
    are built only for the entries handed over, and only in rows that
    improve on their cost now.
    """
    K = len(agents)
    if K == 1:  # one row: a plain minimum
        g = np.minimum.reduce(costs, initial=np.inf)[None]
    else:
        counts = np.diff(starts)
        g = np.full(K, np.inf)
        filled = counts > 0
        if filled.any():
            g[filled] = np.minimum.reduceat(costs, np.asarray(starts[:-1])[filled])
    improving = (g < np.asarray(costs_before, dtype=float) - EPS).tolist()
    if not any(improving):
        return [BestResponse(agent, before, before, [])
                for agent, before in zip(agents, costs_before)]
    # per row: whether it has a near-tie, and its entries costing g
    if K == 1:
        hit = costs == g[0]
        near = [bool(((costs <= g[0] + 2 * EPS) > hit).any())]
        hits = np.flatnonzero(hit).tolist()
        bounds = [0, len(hits)]
    else:
        row = np.repeat(np.arange(K), counts)
        g_row = g[row]
        hit = costs == g_row
        near = np.zeros(K, dtype=bool)
        near[row[(costs <= g_row + 2 * EPS) > hit]] = True
        near, hits = near.tolist(), np.flatnonzero(hit)
        bounds, hits = np.searchsorted(hits, starts).tolist(), hits.tolist()
    g, starts = g.tolist(), list(starts)
    out = []
    for k, (agent, before) in enumerate(zip(agents, costs_before)):
        if not improving[k]:
            out.append(BestResponse(agent, before, before, []))
            continue
        if near[k]:
            s, t = starts[k], starts[k + 1]
            scored = zip(map(make, range(s, t)), costs[s:t].tolist())
        else:
            scored = [(make(e), g[k]) for e in hits[bounds[k]:bounds[k + 1]]]
        out.append(_collect_best(agent, before, scored))
    return out


def _improving_rows(
    costs_before: Sequence[float],
    costs: np.ndarray,
    starts: Sequence[int],
    make: Callable[[int], Move],
) -> List[List[Tuple[Move, float]]]:
    """Per row of a block (laid out as for :func:`_collect_best_rows`),
    ``(move, cost)`` for every entry costing less than its row's cost
    now minus ``EPS``, in stream order; moves are built only for those."""
    starts = np.asarray(starts, dtype=np.int64)
    before = np.asarray(costs_before, dtype=float)
    row = np.repeat(np.arange(before.size), np.diff(starts))
    hits = np.flatnonzero(costs < before[row] - EPS)
    bounds = np.searchsorted(hits, starts).tolist()
    picked, hits = costs[hits].tolist(), hits.tolist()
    return [[(make(e), c) for e, c in zip(hits[a:b], picked[a:b])]
            for a, b in zip(bounds, bounds[1:])]


def _stream(
    batches: Iterable[Tuple[np.ndarray, Callable[[int], Move]]]
) -> Tuple[np.ndarray, Callable[[int], Move]]:
    """The ``(costs, make_move)`` batches read as one stream: the
    concatenated costs and a factory for the move of one position."""
    parts = [(costs, make) for costs, make in batches if costs.size]
    if len(parts) == 1:
        return parts[0]
    bounds = np.cumsum([0] + [c.size for c, _ in parts]).tolist()

    def make(e: int) -> Move:
        b = bisect.bisect_right(bounds, e) - 1
        return parts[b][1](e - bounds[b])

    return np.concatenate([np.empty(0)] + [c for c, _ in parts]), make


def _collect_best_batches(
    agent: int,
    cost_before: float,
    batches: Iterable[Tuple[np.ndarray, "Callable"]],
) -> BestResponse:
    """:func:`_collect_best_rows` of one agent whose cost stream comes
    as ``(costs, make_move)`` batches: a float cost array and a factory
    building the :class:`Move` for one index, read in order."""
    costs, make = _stream(batches)
    return _collect_best_rows([agent], [cost_before], costs, [0, costs.size], make)[0]


def _flatten(batches: Iterable[Tuple[np.ndarray, "Callable"]]) -> Iterator[Tuple[Move, float]]:
    """The ``(move, cost)`` stream a batch enumeration stands for."""
    for costs, make in batches:
        for i, cost in enumerate(costs.tolist()):
            yield make(i), cost


def _improving(
    cur: float, batches: Iterable[Tuple[np.ndarray, "Callable"]]
) -> List[Tuple[Move, float]]:
    """:func:`_improving_rows` of one cost stream given as batches (see
    :func:`_collect_best_batches`), whose cost now is ``cur``."""
    costs, make = _stream(batches)
    return _improving_rows([cur], costs, [0, costs.size], make)[0]


class _EdgeRows:
    """The single-edge moves of a block of ``(network, agent)`` pairs,
    each with its agent's cost after it: a priced
    :class:`~repro.core.best_response.SingleEdgeBlock` plus the
    :class:`Move` of every entry.  ``edge_now[k]`` is pair ``k``'s edge
    cost now."""

    def __init__(self, evaluators, block: SingleEdgeBlock, edge_now):
        self.agents = [ev.u for ev in evaluators]
        self.block = block
        self.cost_before = (np.asarray(edge_now, dtype=float) + block.current).tolist()

    def move(self, e: int) -> Move:
        """The move of flat entry ``e``."""
        k, v, w = self.block.deviation(e)
        u = self.agents[k]
        if v < 0:
            return Buy(u, w)
        return Delete(u, v) if w < 0 else Swap(u, v, w)

    def best_responses(self) -> List[BestResponse]:
        return _collect_best_rows(self.agents, self.cost_before, self.block.costs,
                                  self.block.starts, self.move)

    def improving(self) -> List[List[Tuple[Move, float]]]:
        return _improving_rows(self.cost_before, self.block.costs, self.block.starts, self.move)


#: the largest block of agents whose ``D(G - u)`` a scan requests at once
SCAN_BLOCK_CAP = 32


def scan_best_responses(
    game: "Game",
    net: Network,
    order: Iterable[int],
    backend: Optional[DistanceBackend] = None,
) -> Iterator[BestResponse]:
    """Best responses of the agents in ``order``, lazily and in order.

    Before pricing them, the next agents are announced to the backend
    (``prefetch_deviations``) in blocks of 1, 2, 4, ... up to
    :data:`SCAN_BLOCK_CAP`, so a scan that stops early has computed at
    most about as many ``D(G - u)`` as it used.  The network must not
    change while the scan runs.
    """
    order = [int(u) for u in order]
    backend = resolve_backend(backend)
    start, size = 0, 1
    while start < len(order):
        block = order[start:start + size]
        backend.prefetch_deviations([(net, block)])
        for u in block:
            yield game.best_responses(net, u, backend=backend)
        start += size
        size = min(2 * size, SCAN_BLOCK_CAP)


class Game:
    """Common behaviour of all game types."""

    #: human-readable name, set by subclasses
    name: str = "game"

    def __init__(
        self,
        mode: DistanceMode | str,
        alpha: float = 0.0,
        host: Optional[np.ndarray] = None,
        edge_rule: EdgeCostRule = SWAP_EDGE_COST,
    ):
        self.mode = DistanceMode(mode)
        self.alpha = float(alpha)
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            # every comparison with NaN is false: a NaN price would make
            # every agent look happy and every network stable
            raise ValueError(f"alpha must be a finite edge price >= 0, got {self.alpha}")
        self.edge_rule = edge_rule
        if host is not None:
            host = np.asarray(host, dtype=bool)
            adj.validate_adjacency(host)
        self.host = host

    # -- helpers -----------------------------------------------------------
    def _allowed_targets(self, net: Network, u: int) -> np.ndarray:
        """Boolean mask of vertices ``u`` may create an edge towards."""
        ok = np.ones(net.n, dtype=bool)
        ok[u] = False
        if self.host is not None:
            ok &= self.host[u]
        return ok

    def cache_token(self) -> tuple:
        """Hashable identity of this game's *rules* (not its state).

        Two games with equal tokens score every move identically, so
        best-response caches may be shared across instances.
        """
        return (
            type(self).__name__,
            self.mode.value,
            self.alpha,
            getattr(self, "max_swaps", None),
            # the enumeration cap changes observable behaviour (it gates
            # the NP-hard-guard raise), so it is part of the rules too
            getattr(self, "max_enumeration_agents", None),
            self.host.tobytes() if self.host is not None else None,
            # the edge rule changes every score, hence every cached result
            self.edge_rule.name,
        )

    def _evaluator(self, net: Network, u: int, backend: DistanceBackend) -> DeviationEvaluator:
        """Deviation evaluator for ``u`` over the backend's ``D(G - u)``."""
        return DeviationEvaluator(net, u, self.mode, backend.deviation_distances(net, u))

    def _evaluator_blocks(
        self, requests: Iterable[Tuple[Network, int]], backend: DistanceBackend
    ) -> Iterator[List[DeviationEvaluator]]:
        """Evaluators of the ``(network, agent)`` requests, in order, cut
        into blocks on one ``n`` of at most :data:`SCAN_BLOCK_CAP` pairs,
        and fewer where their pricing would outgrow a packed pass: a pair
        has fewer than ``n²`` single-edge deviations, each priced as a
        row of ``n`` entries, so a block holds at most
        ``incremental._PASS_ENTRIES // n³`` pairs (at least one)."""
        block: List[DeviationEvaluator] = []
        for net, u in requests:
            if block and (net.n != block[0].n or len(block) >= SCAN_BLOCK_CAP
                          or len(block) * net.n ** 3 >= incremental._PASS_ENTRIES):
                yield block
                block = []
            block.append(self._evaluator(net, u, backend))
        if block:
            yield block

    def _cost(self, evaluator: DeviationEvaluator) -> float:
        """``c_G(u)`` priced from the evaluator of ``u``'s moves."""
        net, u = evaluator.net, evaluator.u
        return self.edge_rule(net, u, self.alpha) + evaluator.distance_cost(net.neighbors(u))

    def current_cost(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> float:
        """``c_G(u)``: edge-cost plus SUM/MAX distance-cost, priced from
        ``D(G - u)`` like every deviation of ``u``."""
        return self._cost(self._evaluator(net, u, resolve_backend(backend)))

    def cost_vector(
        self, net: Network, backend: Optional[DistanceBackend] = None
    ) -> np.ndarray:
        """All agents' costs in one APSP pass."""
        D = resolve_backend(backend).full_distances(net)
        if self.mode is DistanceMode.SUM:
            delta = D.sum(axis=1)
        else:
            delta = D.max(axis=1) if net.n > 1 else np.zeros(net.n)
        return self.edge_rule.vector(net, self.alpha) + delta

    def social_cost(self, net: Network, backend: Optional[DistanceBackend] = None) -> float:
        """Sum of all agents' costs."""
        return float(self.cost_vector(net, backend=backend).sum())

    # -- core API: one move enumeration per game ----------------------------
    def _single_edge_rows(self, evaluators: List[DeviationEvaluator]) -> Optional[_EdgeRows]:
        """The block enumeration of the single-edge moves (buy, delete or
        swap one edge) of every evaluator's agent, or ``None`` for a
        game without one (the bilateral game prices its moves only with
        the consent of the other side)."""
        return None

    def _rows(self, evaluators: List[DeviationEvaluator], greedy: bool) -> Optional[_EdgeRows]:
        """The block enumeration of the move set (``greedy``: of the
        single-edge deviations), or ``None`` where the move set is not
        single-edge and the pairs are priced one at a time by
        :meth:`_scored_batches` (BG best responses, multi-swap SG, the
        bilateral game)."""
        if greedy or self.moves_are_greedy():
            return self._single_edge_rows(evaluators)
        return None

    def _scored_batches(
        self, evaluator: DeviationEvaluator, backend: DistanceBackend
    ) -> Iterator[Tuple[np.ndarray, Callable[[int], Move]]]:
        """Every admissible move of the evaluator's agent with its cost
        after it, as ``(costs, make_move)`` batches: a float cost array
        and a factory building the :class:`Move` for one index.  Read in
        order, the batches are the game's canonical move order.  Here:
        the one-pair case of :meth:`_single_edge_rows`."""
        rows = self._single_edge_rows([evaluator])
        yield rows.block.costs, rows.move

    def _greedy_batches(
        self, evaluator: DeviationEvaluator, backend: DistanceBackend
    ) -> Iterator[Tuple[np.ndarray, Callable[[int], Move]]]:
        """:meth:`_scored_batches` cut to the *greedy* deviations: buy
        one edge, delete one owned edge, or swap one edge (Lenzner's
        move set).  For the bilateral game the underlying move set
        already applies the consent check, so greedy moves there are the
        feasible improving single-edge changes."""
        rows = self._rows([evaluator], greedy=True)
        if rows is not None:
            yield rows.block.costs, rows.move
            return
        net = evaluator.net
        for costs, make in self._scored_batches(evaluator, backend):
            keep = [i for i in range(costs.size) if _is_single_edge_change(net, make(i))]
            yield costs[keep], (lambda j, keep=keep, make=make: make(keep[j]))

    def best_responses_block(
        self, requests: Iterable[Tuple[Network, int]], backend: Optional[DistanceBackend] = None
    ) -> Iterator[BestResponse]:
        """The :meth:`best_responses` of every ``(network, agent)`` request,
        in order, priced lazily a block at a time: a caller reading them
        in order holds one block's answers.  The single-edge games price
        a block in one pass; the others loop over their per-agent
        enumeration."""
        backend = resolve_backend(backend)
        for evaluators in self._evaluator_blocks(requests, backend):
            yield from self._best_of(evaluators, backend)

    def improving_moves_block(
        self,
        requests: Iterable[Tuple[Network, int]],
        backend: Optional[DistanceBackend] = None,
        greedy: bool = False,
    ) -> Iterator[List[Tuple[Move, float]]]:
        """The :meth:`improving_moves` (``greedy``: the
        :meth:`greedy_improving_moves`) of every ``(network, agent)``
        request, in order, block-priced like :meth:`best_responses_block`."""
        backend = resolve_backend(backend)
        for evaluators in self._evaluator_blocks(requests, backend):
            yield from self._improving_of(evaluators, backend, greedy)

    def _best_of(
        self, evaluators: List[DeviationEvaluator], backend: DistanceBackend
    ) -> List[BestResponse]:
        """The best responses of one block of pairs."""
        rows = self._rows(evaluators, greedy=False)
        if rows is not None:
            return rows.best_responses()
        return [_collect_best_batches(ev.u, self._cost(ev), self._scored_batches(ev, backend))
                for ev in evaluators]

    def _improving_of(
        self, evaluators: List[DeviationEvaluator], backend: DistanceBackend, greedy: bool
    ) -> List[List[Tuple[Move, float]]]:
        """The improving (``greedy``: improving single-edge) moves of one
        block of pairs."""
        rows = self._rows(evaluators, greedy)
        if rows is not None:
            return rows.improving()
        batches = self._greedy_batches if greedy else self._scored_batches
        return [_improving(self._cost(ev), batches(ev, backend)) for ev in evaluators]

    def _scored_moves(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> Iterator[Tuple[Move, float]]:
        """Yield ``(move, new_cost_of_u)`` for every admissible move."""
        backend = resolve_backend(backend)
        return _flatten(self._scored_batches(self._evaluator(net, u, backend), backend))

    def candidate_moves(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> List[Move]:
        """All admissible strategy-changes of ``u`` (improving or not)."""
        return [m for m, _ in self._scored_moves(net, u, backend=backend)]

    def evaluate_move(
        self, net: Network, u: int, move: Move, backend: Optional[DistanceBackend] = None
    ) -> float:
        """Cost of ``u`` after applying ``move``.

        For ``u``'s own move the distance term is priced through
        ``D(G - u)`` exactly like :meth:`_scored_moves` does (a shortest
        path from ``u`` never revisits ``u``, and ``D(G - u)`` is
        unchanged by ``u``'s own moves); the throwaway copy only supplies
        the new neighbourhood and edge-cost term.
        """
        backend = resolve_backend(backend)
        work = net.copy()
        move.apply(work)
        if move.agent != u:
            # another agent's move can change distances in G - u, so the
            # copy is priced through a fresh memo of its own — the
            # caller's would drop the run's state to sync to the copy
            return self.current_cost(work, u)
        evaluator = self._evaluator(net, u, backend)
        return self.edge_rule(work, u, self.alpha) + evaluator.distance_cost(
            work.neighbors(u)
        )

    def improving_moves(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> List[Tuple[Move, float]]:
        """Admissible moves that strictly decrease ``u``'s cost."""
        backend = resolve_backend(backend)
        return self._improving_of([self._evaluator(net, u, backend)], backend, greedy=False)[0]

    def best_responses(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> BestResponse:
        """All cost-minimising admissible moves of ``u`` (see
        :class:`BestResponse`); empty move list when ``u`` is happy."""
        backend = resolve_backend(backend)
        cached = backend.cached_best_response(self, net, u)
        if cached is not None:
            return cached
        br = self._best_of([self._evaluator(net, u, backend)], backend)[0]
        backend.store_best_response(self, net, u, br)
        return br

    def is_unhappy(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> bool:
        """Whether ``u`` has at least one improving move.  The full best
        response gets memoised, so later calls for the same state (e.g.
        by the move policy) are free."""
        return self.best_responses(net, u, backend=backend).is_improving

    def unhappy_agents(
        self, net: Network, backend: Optional[DistanceBackend] = None
    ) -> List[int]:
        """The set ``U_i`` of Section 1.1."""
        return [br.agent for br in scan_best_responses(self, net, range(net.n), backend)
                if br.is_improving]

    def is_stable(self, net: Network, backend: Optional[DistanceBackend] = None) -> bool:
        """``True`` iff no agent has an improving move (pure NE); stops at
        the first unhappy agent."""
        return not any(br.is_improving
                       for br in scan_best_responses(self, net, range(net.n), backend))

    # -- greedy (single-edge) deviations -----------------------------------
    def moves_are_greedy(self) -> bool:
        """Whether every admissible move of this game is already a
        single-edge deviation.  In that case the greedy equilibria (GE)
        coincide with the pure Nash equilibria by definition, and the
        greedy methods below fall through to the full move set at no
        extra cost.  True for the standard swap games and the GBG;
        False for games with multi-edge strategy changes (BG, bilateral,
        multi-swap SG)."""
        return False

    def greedy_scored_moves(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> Iterator[Tuple[Move, float]]:
        """``(move, new_cost_of_u)`` for every admissible greedy deviation."""
        backend = resolve_backend(backend)
        return _flatten(self._greedy_batches(self._evaluator(net, u, backend), backend))

    def greedy_improving_moves(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> List[Tuple[Move, float]]:
        """Greedy deviations that strictly decrease ``u``'s cost."""
        backend = resolve_backend(backend)
        return self._improving_of([self._evaluator(net, u, backend)], backend, greedy=True)[0]

    def is_greedy_unhappy(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> bool:
        """Whether ``u`` has at least one improving greedy deviation."""
        backend = resolve_backend(backend)
        evaluator = self._evaluator(net, u, backend)
        cur = self._cost(evaluator)
        return any(bool((costs < cur - EPS).any())
                   for costs, _ in self._greedy_batches(evaluator, backend))

    def greedy_unhappy_agents(
        self, net: Network, backend: Optional[DistanceBackend] = None
    ) -> List[int]:
        """Agents with at least one improving greedy deviation."""
        backend = resolve_backend(backend)
        return [u for u in range(net.n) if self.is_greedy_unhappy(net, u, backend=backend)]

    def is_greedy_stable(
        self, net: Network, backend: Optional[DistanceBackend] = None
    ) -> bool:
        """``True`` iff no agent has an improving single-edge deviation —
        a *greedy equilibrium* (GE).  Every NE is a GE (the greedy move
        set is a subset of the full one); the converse holds exactly for
        games with :meth:`moves_are_greedy`."""
        return not self.greedy_unhappy_agents(net, backend=backend)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(mode={self.mode.value}, alpha={self.alpha})"


# ---------------------------------------------------------------------------
# Swap games
# ---------------------------------------------------------------------------


class SwapGame(Game):
    """The Swap Game of Alon et al. (SPAA'10) — "Basic NCG".

    An agent's strategy is its *neighbourhood*; a move replaces one
    neighbour by a non-neighbour.  Either endpoint may swap an edge, and
    ownership is ignored entirely.  No edge-cost term.

    ``max_swaps`` enables the *multi-swap* extension the paper's
    Theorems 2.16 and 3.3 also cover: a single move may replace up to
    ``max_swaps`` movable edges at once (the default 1 is the standard
    game).  Multi-moves are emitted as :class:`StrategyChange` objects.
    """

    name = "SG"

    def __init__(
        self,
        mode: DistanceMode | str,
        host: Optional[np.ndarray] = None,
        max_swaps: int = 1,
    ):
        super().__init__(mode, alpha=0.0, host=host, edge_rule=SWAP_EDGE_COST)
        if max_swaps < 1:
            raise ValueError("max_swaps must be >= 1")
        self.max_swaps = max_swaps

    def moves_are_greedy(self) -> bool:
        # the standard swap game only ever moves one edge; the
        # multi-swap extension is the one exception
        return self.max_swaps == 1

    def _swap_sources(self, net: Network, u: int) -> np.ndarray:
        """Edges ``u`` may move: in the SG, every incident edge."""
        return net.neighbors(u)

    def _sources(self, evaluators) -> Optional[np.ndarray]:
        """:meth:`_swap_sources` of every pair as a ``(K, n)`` mask, or
        ``None`` for every incident edge (the SG)."""
        return None

    def _single_edge_rows(self, evaluators):
        """Every single swap of every pair: per movable edge ``{u, v}``
        ascending, its swaps to each non-neighbour ``w`` ascending."""
        block = price_single_edge(evaluators, self._sources(evaluators), self.host, None)
        return _EdgeRows(evaluators, block,
                         [self.edge_rule(ev.net, ev.u, self.alpha) for ev in evaluators])

    def _scored_batches(self, evaluator, backend):
        """Every single swap in one batch (:meth:`_single_edge_rows` of
        the pair), then the multi-swaps."""
        yield from super()._scored_batches(evaluator, backend)
        if self.max_swaps > 1:
            net, u = evaluator.net, evaluator.u
            allowed = self._allowed_targets(net, u)
            allowed[net.neighbors(u)] = False  # cannot swap onto an existing neighbour
            yield self._multi_swap_batch(net, u, evaluator, self._swap_sources(net, u).tolist(),
                                         np.flatnonzero(allowed).tolist())

    def _multi_swap_batch(self, net: Network, u: int, evaluator, sources, pool):
        """Strategy changes replacing 2..max_swaps movable edges at once.

        Enumerated exhaustively; intended for the paper's instance sizes
        (the multi-swap claims of Theorems 2.16/3.3), not for sweeps.
        """
        all_nbrs = set(net.neighbors(u).tolist())
        edge_cost = self.edge_rule(net, u, self.alpha)  # swaps keep the edge count
        moves, costs = [], []
        for k in range(2, min(self.max_swaps, len(sources)) + 1):
            for removed in itertools.combinations(sources, k):
                kept = sorted(all_nbrs - set(removed))
                for added in itertools.combinations(pool, k):
                    moves.append(self._make_multi_move(net, u, removed, added))
                    costs.append(edge_cost + evaluator.distance_cost(kept + list(added)))
        return np.array(costs, dtype=float), moves.__getitem__

    def _make_multi_move(self, net: Network, u: int, removed, added) -> Move:
        # In the SG a multi-swap may move edges owned by others; express
        # it as a bilateral-style neighbourhood replacement.
        new_nbrs = (set(net.neighbors(u).tolist()) - set(removed)) | set(added)
        return StrategyChange(u, frozenset(new_nbrs), bilateral=True)


class AsymmetricSwapGame(SwapGame):
    """The ASG of Mihalák & Schlegel (MFCS'12): only owners swap."""

    name = "ASG"

    def _swap_sources(self, net: Network, u: int) -> np.ndarray:
        return net.owned_targets(u)

    def _sources(self, evaluators) -> Optional[np.ndarray]:
        return np.array([ev.net.owner[ev.u] for ev in evaluators])

    def _make_multi_move(self, net: Network, u: int, removed, added) -> Move:
        new_targets = (set(net.owned_targets(u).tolist()) - set(removed)) | set(added)
        return StrategyChange(u, frozenset(new_targets))


# ---------------------------------------------------------------------------
# Buy games
# ---------------------------------------------------------------------------


class GreedyBuyGame(Game):
    """The Greedy Buy Game (Lenzner, WINE'12).

    One move buys, deletes or swaps a single own edge.  Edge price
    ``alpha`` is paid per owned edge.
    """

    name = "GBG"

    def __init__(
        self,
        mode: DistanceMode | str,
        alpha: float,
        host: Optional[np.ndarray] = None,
        edge_rule: EdgeCostRule = OWNER_PAYS,
    ):
        super().__init__(mode, alpha=alpha, host=host, edge_rule=edge_rule)

    def moves_are_greedy(self) -> bool:
        # the GBG *is* the greedy move set: GE == NE here by definition
        return True

    def _edge_terms(self, net: Network, u: int, k: int) -> Tuple[float, float, float]:
        """Edge-cost term of ``u`` after a buy / swap / delete, when ``u``
        currently owns ``k`` edges.

        The owner-pays closed forms are kept verbatim (the golden
        trajectory fixtures pin their float bytes); cost-sharing
        subclasses override this with edge_rule-derived terms.
        """
        return self.alpha * (k + 1), self.alpha * k, self.alpha * (k - 1)

    def _single_edge_rows(self, evaluators):
        """The whole move set of every pair: the buys, then per owned edge
        its delete and its swaps."""
        owned = np.array([ev.net.owner[ev.u] for ev in evaluators])
        terms = np.array([self._edge_terms(ev.net, ev.u, k)
                          for ev, k in zip(evaluators, owned.sum(axis=1).tolist())])
        block = price_single_edge(evaluators, owned, self.host, terms)
        # a swap keeps the edge count: its term is the edge cost now
        return _EdgeRows(evaluators, block, terms[:, 1])


class CooperativeBuyGame(GreedyBuyGame):
    """Cooperative cost-sharing NCG in the greedy move model.

    Demaine et al.'s cooperative network creation game splits every
    edge's price between its endpoints; this variant keeps the GBG's
    unilateral single-edge moves (the deciding agent buys/deletes/swaps
    one own edge) but charges both endpoints through a
    :class:`~repro.core.costs.SharedEdgeCostRule` — the polarised
    simplification of the arbitrary-sharing model in which the builder
    carries ``owner_share`` of the price and the accepting endpoint the
    rest.  With ``owner_share=1`` the game degenerates to the GBG;
    lower shares make edges cheaper to build and harder to be rid of
    (deleting an owned edge refunds only the builder's share), which
    shifts the equilibrium census.
    """

    name = "CoopGBG"

    def __init__(
        self,
        mode: DistanceMode | str,
        alpha: float,
        host: Optional[np.ndarray] = None,
        owner_share: float = 0.5,
    ):
        super().__init__(
            mode, alpha=alpha, host=host, edge_rule=SharedEdgeCostRule(owner_share)
        )

    @property
    def owner_share(self) -> float:
        """Fraction of alpha the edge's builder pays."""
        return self.edge_rule.owner_share

    def _edge_terms(self, net: Network, u: int, k: int) -> Tuple[float, float, float]:
        # u's moves only change its owned set, so the incoming-share part
        # of the edge cost is invariant: price moves as base +/- the
        # owner's marginal share
        base = self.edge_rule(net, u, self.alpha)
        marginal = self.edge_rule.owner_marginal(self.alpha)
        return base + marginal, base, base - marginal


class BuyGame(Game):
    """The original NCG of Fabrikant et al. (PODC'03).

    A move replaces the owned-target set by *any* subset of the other
    vertices.  Computing best responses is NP-hard in general; this
    implementation enumerates all ``2^(n-1-#incoming)`` strategies and is
    intended for the paper's small counterexample instances
    (``n <= max_enumeration_agents``).
    """

    name = "BG"

    def __init__(
        self,
        mode: DistanceMode | str,
        alpha: float,
        host: Optional[np.ndarray] = None,
        max_enumeration_agents: int = 16,
    ):
        super().__init__(mode, alpha=alpha, host=host, edge_rule=OWNER_PAYS)
        self.max_enumeration_agents = max_enumeration_agents

    # the BG's greedy deviations are exactly the GBG's move set under the
    # same owner-pays cost model: pricing them with the GBG's enumerator
    # keeps greedy stability decidable past ``max_enumeration_agents``
    _edge_terms = GreedyBuyGame._edge_terms
    _single_edge_rows = GreedyBuyGame._single_edge_rows

    def _scored_batches(self, evaluator, backend):
        """Every owned-target set other than the current one, as one batch
        (by size, then lexicographically)."""
        net, u = evaluator.net, evaluator.u
        if net.n > self.max_enumeration_agents:
            raise ValueError(
                f"BuyGame strategy enumeration limited to n <= "
                f"{self.max_enumeration_agents} agents (best response is NP-hard); "
                "use GreedyBuyGame for larger networks"
            )
        incoming = set(net.incoming_neighbors(u).tolist())
        owned = net.owned_targets(u)
        current = frozenset(owned.tolist())
        allowed = self._allowed_targets(net, u)
        allowed[owned] = True  # keeping an edge creates nothing, host or not
        # buying an edge parallel to an incoming one never changes the
        # topology but costs alpha, so it is never part of a best response;
        # excluding those targets keeps enumeration small and sound.
        pool = [w for w in np.flatnonzero(allowed).tolist() if w not in incoming]
        fixed = sorted(incoming)
        strategies = [
            S
            for r in range(len(pool) + 1)
            for S in map(frozenset, itertools.combinations(pool, r))
            if S != current
        ]
        costs = [self.alpha * len(S) + evaluator.distance_cost(list(S) + fixed)
                 for S in strategies]
        yield np.array(costs, dtype=float), lambda i: StrategyChange(u, strategies[i])


# ---------------------------------------------------------------------------
# Bilateral equal-split game (Corbo & Parkes, PODC'05)
# ---------------------------------------------------------------------------


class BilateralGame(Game):
    """Bilateral network formation with equal-split edge costs.

    An agent's strategy is its neighbourhood; each endpoint of an edge
    pays ``alpha/2``.  A strategy change is *feasible* iff no newly added
    neighbour's cost strictly increases (they must "selfishly agree");
    deletions are unilateral.  ``improving_moves``/``best_responses``
    return only feasible improving changes, matching the paper's
    definition of a move.
    """

    name = "BBG"

    def __init__(
        self,
        mode: DistanceMode | str,
        alpha: float,
        host: Optional[np.ndarray] = None,
        max_enumeration_agents: int = 14,
    ):
        super().__init__(mode, alpha=alpha, host=host, edge_rule=EQUAL_SPLIT)
        self.max_enumeration_agents = max_enumeration_agents

    # -- feasibility --------------------------------------------------------
    def blocking_agents(self, net: Network, move: StrategyChange) -> List[int]:
        """Agents who would block ``move`` (their cost strictly increases).

        Only newly added neighbours may block.  Returns an empty list for
        feasible moves.
        """
        return self._blockers(net, move, resolve_backend(None))

    def _blockers(
        self, net: Network, move: StrategyChange, backend: DistanceBackend
    ) -> List[int]:
        """:meth:`blocking_agents`, with the costs before the move read
        from ``backend``'s ``D(G)`` of ``net`` (one APSP per state)."""
        old = set(net.neighbors(move.agent).tolist())
        added = sorted(set(move.new_targets) - old)
        if not added:
            return []
        work = net.copy()
        move.apply(work)
        # the hypothetical network is a throwaway copy: priced through a
        # fresh memo, so the caller's keeps D(G) of ``net``
        after = self.cost_vector(work)
        before = self.cost_vector(net, backend)
        return [v for v in added if after[v] > before[v] + EPS]

    def feasible(self, net: Network, move: StrategyChange) -> bool:
        """Whether no newly added neighbour blocks the move."""
        return not self.blocking_agents(net, move)

    # -- enumeration ---------------------------------------------------------
    def _improving_strategies(
        self, evaluator: DeviationEvaluator
    ) -> Iterator[Tuple[StrategyChange, float]]:
        """Every neighbourhood cheaper for the evaluator's agent than its
        current one, with that cost, consented to or not (by size, then
        lexicographically)."""
        net, u = evaluator.net, evaluator.u
        if net.n > self.max_enumeration_agents:
            raise ValueError(
                f"BilateralGame strategy enumeration limited to n <= "
                f"{self.max_enumeration_agents} agents"
            )
        cur = self._cost(evaluator)
        nbrs = net.neighbors(u)
        allowed = self._allowed_targets(net, u)
        allowed[nbrs] = True  # keeping an edge creates nothing, host or not
        pool = np.flatnonzero(allowed).tolist()
        current = frozenset(nbrs.tolist())
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                S = frozenset(combo)
                if S == current:
                    continue
                cost = (self.alpha / 2.0) * len(S) + evaluator.distance_cost(sorted(S))
                if cost < cur - EPS:
                    yield StrategyChange(u, S, bilateral=True), cost

    def _scored_batches(self, evaluator, backend):
        """The feasible improving moves, as one batch.

        Cheap cost screening happens *before* the (expensive) consent
        check: only strategies better than the current one get a
        feasibility test.  This keeps the enumeration usable at the
        paper's instance sizes.  The consent check reads the costs before
        the move from ``backend`` and prices each hypothetical network
        through a fresh memo of its own.
        """
        net = evaluator.net
        scored = [(m, c) for m, c in self._improving_strategies(evaluator)
                  if not self._blockers(net, m, backend)]
        yield np.array([c for _, c in scored], dtype=float), [m for m, _ in scored].__getitem__

    def improving_moves_with_blockers(
        self, net: Network, u: int, backend: Optional[DistanceBackend] = None
    ) -> List[Tuple[StrategyChange, float, List[int]]]:
        """All cost-improving strategies with their blocking sets.

        Unlike :meth:`improving_moves` this also reports *blocked*
        improvements — the proofs of Theorems 5.1/5.2 reason explicitly
        about which agent blocks which strategy, and the tests verify
        those claims.
        """
        backend = resolve_backend(backend)
        return [(m, c, self._blockers(net, m, backend))
                for m, c in self._improving_strategies(self._evaluator(net, u, backend))]
