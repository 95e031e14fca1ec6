"""Dynamics classification — Section 1.2 of the paper.

The paper classifies games by their dynamic behaviour::

    poly-FIPG  ⊂  FIPG  ⊂  BR-WAG  ⊂  WAG

* **FIPG** (finite improvement property): every improving-move sequence
  reaches an equilibrium — equivalently, the *better-response digraph*
  over states is acyclic.
* **WAG** (weakly acyclic): from every state *some* improving sequence
  reaches an equilibrium.
* **BR-WAG**: from every state some *best-response* sequence reaches an
  equilibrium.

For small instances all three are decidable by explicit construction of
the response digraph.  :func:`explore_improving_moves` builds the
reachable state space from a start network; :func:`classify_reachable`
reports which of the classes hold *on that reachable component* — which
is exactly what the paper's counterexamples are about ("starting with
network G1 ... there is no sequence of improving moves which leads to a
stable network").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .games import Game
from .network import Network

__all__ = [
    "StateGraph",
    "explore_improving_moves",
    "classify_reachable",
    "ClassificationReport",
    "longest_improvement_path",
]


@dataclass
class StateGraph:
    """Explicit better- or best-response digraph over reachable states."""

    #: canonical key -> state index
    index: Dict[bytes, int]
    #: representative network per state
    states: List[Network]
    #: successor state indices per state (improving moves)
    successors: List[List[int]]
    #: whether exploration hit the state budget (results then partial)
    truncated: bool = False

    @property
    def n_states(self) -> int:
        """Number of reachable states explored."""
        return len(self.states)

    def sinks(self) -> List[int]:
        """Stable states (no improving move)."""
        return [i for i, s in enumerate(self.successors) if not s]


def explore_improving_moves(
    game: Game,
    start: Network,
    max_states: int = 20_000,
    moves: str = "improving",
) -> StateGraph:
    """BFS over all improving-move (or best-response) successors.

    Returns the reachable response digraph.  ``truncated`` is set when
    the budget is exhausted; callers must treat conclusions as partial
    in that case.

    ``moves`` picks the moveset: ``"improving"`` (every improving move,
    the default), ``"best"`` (best responses only) or ``"greedy"``,
    which builds the single-edge-deviation digraph whose sinks are the
    greedy equilibria — the graph Lenzner's greedy dynamics walk.

    Successor enumeration runs through the statespace subsystem's
    :class:`~repro.statespace.expand.Expander` — the same memoized,
    canonically-keyed transition rules the exhaustive explorer uses —
    so the two response-graph builders can never drift apart on move
    semantics or state identity.
    """
    from ..statespace.expand import Expander

    expander = Expander(game, moves=moves)
    index: Dict[bytes, int] = {}
    states: List[Network] = []
    successors: List[List[int]] = []
    truncated = False

    def intern(key: bytes, net: Network) -> int:
        if key in index:
            return index[key]
        idx = len(states)
        index[key] = idx
        states.append(net.copy())
        successors.append([])
        return idx

    frontier = [intern(expander.key(start), start)]
    explored: Set[int] = set()
    while frontier:
        i = frontier.pop()
        if i in explored:
            continue
        explored.add(i)
        net = states[i]
        for trans, nxt in expander.expand_with_successors(net):
            if len(states) >= max_states and trans.succ_key not in index:
                truncated = True
                continue
            j = intern(trans.succ_key, nxt)
            if j not in successors[i]:
                successors[i].append(j)
            if j not in explored:
                frontier.append(j)
    return StateGraph(index, states, successors, truncated)


def longest_improvement_path(sg: StateGraph) -> int:
    """Length of the longest improving-move sequence in ``sg``.

    On FIP components (trees, per Theorem 2.1 / Corollary 3.1) the
    response digraph is a DAG and this is the *exact adversarial
    worst-case convergence time* from the explored start state — the
    quantity the O(n^3) bounds cap.  Raises on cyclic graphs, where the
    worst case is unbounded.
    """
    n = sg.n_states
    # topological order via DFS post-order (raises on a cycle)
    color = [0] * n
    order: List[int] = []
    for root in range(n):
        if color[root] != 0:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, ptr = stack[-1]
            if ptr < len(sg.successors[node]):
                stack[-1] = (node, ptr + 1)
                nxt = sg.successors[node][ptr]
                if color[nxt] == 1:
                    raise ValueError("response digraph contains a cycle; "
                                     "worst-case convergence time is unbounded")
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                order.append(node)
                stack.pop()
    dist = [0] * n
    for node in order:  # reverse topological order
        for nxt in sg.successors[node]:
            dist[node] = max(dist[node], 1 + dist[nxt])
    return dist[0] if n else 0


@dataclass
class ClassificationReport:
    """Which dynamics classes hold on the explored component."""

    n_states: int
    n_stable: int
    has_improvement_cycle: bool
    all_states_can_reach_stable: bool
    truncated: bool

    @property
    def fip(self) -> bool:
        """Finite improvement property on the component."""
        return not self.has_improvement_cycle

    @property
    def weakly_acyclic(self) -> bool:
        """Whether every explored state can reach a stable state."""
        return self.all_states_can_reach_stable


def classify_reachable(
    game: Game,
    start: Network,
    max_states: int = 20_000,
    moves: str = "improving",
) -> ClassificationReport:
    """Classify the dynamics on the component reachable from ``start``.

    ``weakly_acyclic == False`` on an untruncated exploration certifies
    the paper's strongest negative claims: no sequence of improving
    (resp. best-response) moves from ``start`` reaches a stable network.
    With ``moves="greedy"`` the same machinery classifies the
    *greedy* dynamics (single-edge deviations): stable states are then
    greedy equilibria and ``weakly_acyclic`` is greedy weak acyclicity.
    """
    sg = explore_improving_moves(game, start, max_states=max_states, moves=moves)
    sinks = set(sg.sinks())
    # backward reachability from sinks
    n = sg.n_states
    rev: List[List[int]] = [[] for _ in range(n)]
    for i, succs in enumerate(sg.successors):
        for j in succs:
            rev[j].append(i)
    can_reach: Set[int] = set()
    stack = list(sinks)
    while stack:
        i = stack.pop()
        if i in can_reach:
            continue
        can_reach.add(i)
        stack.extend(rev[i])
    # cycle detection on the forward graph (iterative colouring)
    color = [0] * n  # 0 white, 1 grey, 2 black
    has_cycle = False
    for root in range(n):
        if color[root] != 0:
            continue
        stack2: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack2:
            node, ptr = stack2[-1]
            if ptr < len(sg.successors[node]):
                stack2[-1] = (node, ptr + 1)
                nxt = sg.successors[node][ptr]
                if color[nxt] == 1:
                    has_cycle = True
                elif color[nxt] == 0:
                    color[nxt] = 1
                    stack2.append((nxt, 0))
            else:
                color[node] = 2
                stack2.pop()
        if has_cycle:
            break
    return ClassificationReport(
        n_states=n,
        n_stable=len(sinks),
        has_improvement_cycle=has_cycle,
        all_states_can_reach_stable=(len(can_reach) == n),
        truncated=sg.truncated,
    )
