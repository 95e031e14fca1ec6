"""Exhaustive response-graph exploration: equilibrium and cycle census.

The paper's core results are statements about the *whole* best-response
transition system — dynamics can cycle (Theorems 3.3/3.7), no potential
function exists, convergence is not guaranteed — yet trajectory sampling
(:func:`repro.core.dynamics.run_dynamics`) only ever sees single paths
through it.  :func:`explore` builds the transition system explicitly:

* **seeded** from one start network (the reachable component — what the
  paper's counterexample proofs construct by hand), or from *every*
  connected configuration at size ``n`` (:func:`enumerate_states` — the
  full state space, making the census genuinely exhaustive);
* **expanded** through :class:`~repro.statespace.expand.Expander`
  (priced through the per-state memo,
  :class:`~repro.graphs.incremental.IncrementalBackend`);
* **analysed** by an iterative Tarjan SCC pass into an
  :class:`ExplorationReport`: all equilibria (sinks), all best-response
  cycles (non-trivial SCCs, each with a deterministic replayable witness
  cycle), per-equilibrium basin sizes, and the longest improving path
  (exact adversarial convergence time on acyclic components).

Exploration is **kill-safe and shardable**: with a ``store`` the
frontier BFS appends one record per expanded state to the campaign-store
JSONL format (:mod:`.store`), so a killed run resumes with zero
recomputation and independent invocations with ``shard=(i, k)`` split
the frontier deterministically (state ``s`` belongs to the shard of its
key digest).  A shard drains only its own states; alternating shard
invocations converge to the full graph, and the finished report is a
pure function of the graph — byte-identical however the work was
scheduled, interrupted, or sharded.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.games import Game
from ..core.moves import move_from_dict
from ..core.network import Network
from ..graphs import adjacency as adj
from ..graphs import incremental
from ..graphs.incremental import DistanceBackend
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .encode import decode_state, encode_state
from .expand import AGENT_FILTERS, MOVESETS, Expander, ownership_matters
from .store import ExplorationStore, manifest_for

# frontier telemetry: one gauge write + one span per BFS layer, one
# counter add per batch of expansions — never per transition
_EXPANSIONS = obs_metrics.counter(
    "repro_explore_expansions_total",
    "Statespace expansions performed")
_FRONTIER_DEPTH = obs_metrics.gauge(
    "repro_explore_frontier_depth",
    "Pending-state count of the most recent frontier layer")

__all__ = [
    "DEFAULT_MAX_STATES",
    "ResponseGraph",
    "ExplorationReport",
    "enumerate_states",
    "explore",
    "verify_sinks",
]

DEFAULT_MAX_STATES = 200_000

#: enumeration guard: refuse state-space sizes that could never finish.
_MAX_ENUMERATION = 2_000_000

#: census size up to which the report also carries the greedy-equilibrium
#: scan for games whose full move set is not single-edge (BG, bilateral).
_GREEDY_SCAN_MAX = 20_000


# ---------------------------------------------------------------------------
# exhaustive state enumeration
# ---------------------------------------------------------------------------


def enumerate_states(
    n: int,
    with_ownership: bool = True,
    connected_only: bool = True,
) -> List[Network]:
    """Every network configuration on ``n`` labelled vertices.

    With ownership each unordered pair is absent / owned by the smaller
    endpoint / owned by the larger one (``3^C(n,2)`` raw assignments);
    without, pairs are absent/present with canonical smaller-endpoint
    ownership (``2^C(n,2)`` — the Swap Game's topology-only notion).

    ``connected_only`` keeps only connected configurations — the class
    the paper's processes live in, and one that improving-move dynamics
    never leave (a move disconnecting the mover has infinite distance
    cost, so it is never improving).
    """
    pairs = list(combinations(range(n), 2))
    choices = 3 if with_ownership else 2
    total = choices ** len(pairs)
    if total > _MAX_ENUMERATION:
        raise ValueError(
            f"state space of n={n} ({'ownership' if with_ownership else 'topology'}"
            f" notion) has {total} raw configurations; exhaustive enumeration "
            f"is capped at {_MAX_ENUMERATION} — seed from a start network instead"
        )
    out: List[Network] = []
    for assign in product(range(choices), repeat=len(pairs)):
        A = np.zeros((n, n), dtype=bool)
        O = np.zeros((n, n), dtype=bool)
        for (u, v), c in zip(pairs, assign):
            if c == 0:
                continue
            A[u, v] = A[v, u] = True
            if c == 1:
                O[u, v] = True
            else:
                O[v, u] = True
        if connected_only and not adj.is_connected(A):
            continue
        out.append(Network(A, O))
    return out


# ---------------------------------------------------------------------------
# the explicit response graph
# ---------------------------------------------------------------------------


@dataclass
class ResponseGraph:
    """The explored transition system, indexed by canonical state key."""

    #: state key -> state index
    index: Dict[bytes, int] = field(default_factory=dict)
    #: canonical key per state
    keys: List[bytes] = field(default_factory=list)
    #: lossless ``encode_state`` blob per state
    blobs: List[bytes] = field(default_factory=list)
    #: per state: ``None`` while unexpanded, else the transition list
    #: ``(agent, move dict, successor index)``
    transitions: List[Optional[List[Tuple[int, dict, int]]]] = field(default_factory=list)
    #: whether the state-count budget cut discovery short
    truncated: bool = False
    #: states whose expansion had edges dropped by the budget — their
    #: empty transition lists must not read as "equilibrium"
    clipped: set = field(default_factory=set)

    @property
    def n_states(self) -> int:
        return len(self.keys)

    @property
    def n_edges(self) -> int:
        return sum(len(t) for t in self.transitions if t is not None)

    def pending(self) -> List[int]:
        """Indices of discovered-but-unexpanded states."""
        return [i for i, t in enumerate(self.transitions) if t is None]

    @property
    def complete(self) -> bool:
        """Whether every discovered state has been expanded, untruncated."""
        return not self.truncated and all(t is not None for t in self.transitions)

    def intern(self, key: bytes, blob: bytes) -> int:
        idx = self.index.get(key)
        if idx is not None:
            return idx
        idx = len(self.keys)
        self.index[key] = idx
        self.keys.append(key)
        self.blobs.append(blob)
        self.transitions.append(None)
        return idx

    def network(self, i: int) -> Network:
        """Decoded representative network of state ``i``."""
        return decode_state(self.blobs[i])

    def successors(self, i: int) -> List[int]:
        """Distinct successor indices of an expanded state."""
        t = self.transitions[i]
        if t is None:
            raise ValueError(f"state {i} has not been expanded")
        return sorted({j for _, _, j in t})

    def sinks(self) -> List[int]:
        """Expanded states with no outgoing transition (equilibria).

        States whose expansion lost edges to the discovery budget are
        excluded — an artificially emptied transition list is not a
        Nash equilibrium.
        """
        return [
            i for i, t in enumerate(self.transitions)
            if t == [] and i not in self.clipped
        ]


# ---------------------------------------------------------------------------
# SCC / path analysis (iterative, explicit stacks)
# ---------------------------------------------------------------------------


def _tarjan_sccs(n: int, succ: List[List[int]]) -> List[List[int]]:
    """Strongly connected components, iteratively (no recursion limit)."""
    sccs: List[List[int]] = []
    indices = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if indices[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                indices[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while ptr < len(succ[node]):
                nxt = succ[node][ptr]
                ptr += 1
                if indices[nxt] == -1:
                    work[-1] = (node, ptr)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], indices[nxt])
            if advanced:
                continue
            if low[node] == indices[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _longest_path(n: int, succ: List[List[int]]) -> int:
    """Longest path (in moves) of an *acyclic* response graph."""
    color = [0] * n
    order: List[int] = []
    for root in range(n):
        if color[root] != 0:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, ptr = stack[-1]
            if ptr < len(succ[node]):
                stack[-1] = (node, ptr + 1)
                nxt = succ[node][ptr]
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                order.append(node)
                stack.pop()
    dist = [0] * n
    best = 0
    for node in order:  # reverse topological order
        for nxt in succ[node]:
            dist[node] = max(dist[node], 1 + dist[nxt])
        best = max(best, dist[node])
    return best


def _witness_cycle(
    graph: ResponseGraph, scc: List[int]
) -> List[dict]:
    """A deterministic replayable cycle inside one non-trivial SCC.

    Anchored at the member with the lexicographically smallest state
    key; BFS inside the SCC (layers and neighbours visited in key
    order) finds the shortest cycle through the anchor, and each hop is
    labelled with the canonically-first transition between its
    endpoints — so the witness depends only on the graph, never on
    discovery order.
    """
    members = set(scc)
    keys = graph.keys

    def inner_succ(i: int) -> List[int]:
        return sorted(
            {j for _, _, j in graph.transitions[i] if j in members},
            key=lambda j: keys[j],
        )

    anchor = min(scc, key=lambda i: keys[i])
    parent: Dict[int, int] = {anchor: -1}
    layer = [anchor]
    closer = None
    while layer and closer is None:
        nxt_layer: List[int] = []
        for i in sorted(layer, key=lambda i: keys[i]):
            for j in inner_succ(i):
                if j == anchor:
                    closer = i
                    break
                if j not in parent:
                    parent[j] = i
                    nxt_layer.append(j)
            if closer is not None:
                break
        layer = nxt_layer
    if closer is None:  # pragma: no cover - an SCC always has a cycle
        raise RuntimeError("non-trivial SCC without a cycle")
    path = [closer]
    while path[-1] != anchor:
        path.append(parent[path[-1]])
    path.reverse()  # anchor .. closer
    hops = list(zip(path, path[1:] + [anchor]))

    def first_label(i: int, j: int) -> Tuple[int, dict]:
        for agent, move, k in graph.transitions[i]:
            if k == j:
                return agent, move
        raise RuntimeError("missing transition for witness hop")

    steps = []
    for i, j in hops:
        agent, move = first_label(i, j)
        steps.append(
            {
                "from": keys[i].hex(),
                "agent": int(agent),
                "move": move,
                "to": keys[j].hex(),
            }
        )
    return steps


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

REPORT_VERSION = 1


@dataclass
class ExplorationReport:
    """Census of one explored response graph.

    All state references are canonical key hex digests; every field is
    a pure function of the graph (never of discovery order), so two
    explorations of the same triple — resumed, sharded, or spread over
    worker processes — serialize to identical bytes.
    """

    game: str
    mode: str
    alpha: float
    n: int
    moves: str
    agent_filter: str
    n_states: int
    n_edges: int
    #: sorted state-key hexes of all sinks — pure Nash equilibria under
    #: ``moves="best"|"improving"``, greedy equilibria under ``"greedy"``
    equilibria: List[str] = field(default_factory=list)
    #: sorted state-key hexes of all *greedy* equilibria (GE: no agent
    #: has an improving single-edge deviation; NE ⊆ GE always).  ``None``
    #: when the census is partial/truncated or too large to scan.
    greedy_equilibria: Optional[List[str]] = None
    #: equilibrium hex -> number of states from which it is reachable
    basin_sizes: Dict[str, int] = field(default_factory=dict)
    #: non-trivial SCCs: {"states": sorted hexes, "witness": replayable steps}
    cycles: List[dict] = field(default_factory=list)
    #: longest improving-move sequence; ``None`` when cycles make it unbounded
    longest_improving_path: Optional[int] = None
    #: whether every discovered state was expanded (False for a drained
    #: shard whose siblings still hold pending states)
    complete: bool = True
    #: discovered-but-unexpanded states (0 when complete)
    pending: int = 0
    truncated: bool = False
    version: int = REPORT_VERSION
    #: the underlying graph (in-memory only; dropped from JSON)
    graph: Optional[ResponseGraph] = field(default=None, repr=False, compare=False)

    @property
    def n_equilibria(self) -> int:
        return len(self.equilibria)

    @property
    def n_greedy_equilibria(self) -> Optional[int]:
        return None if self.greedy_equilibria is None else len(self.greedy_equilibria)

    @property
    def has_cycle(self) -> bool:
        return bool(self.cycles)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "game": self.game,
            "mode": self.mode,
            "alpha": self.alpha,
            "n": self.n,
            "moves": self.moves,
            "agent_filter": self.agent_filter,
            "n_states": self.n_states,
            "n_edges": self.n_edges,
            "equilibria": list(self.equilibria),
            "greedy_equilibria": (
                None if self.greedy_equilibria is None else list(self.greedy_equilibria)
            ),
            "basin_sizes": dict(self.basin_sizes),
            "cycles": list(self.cycles),
            "longest_improving_path": self.longest_improving_path,
            "complete": self.complete,
            "pending": self.pending,
            "truncated": self.truncated,
        }

    def json_bytes(self) -> bytes:
        """Canonical serialization (sorted keys, compact separators) —
        the byte-identity surface of the resume/shard guarantees."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode()

    @classmethod
    def from_json(cls, payload: dict) -> "ExplorationReport":
        known = {f for f in cls.__dataclass_fields__} - {"graph"}
        data = {k: v for k, v in payload.items() if k in known}
        return cls(**data)

    def summary(self, max_listed: int = 10) -> str:
        """One-paragraph human rendering for the CLI.

        Large censuses list only the first ``max_listed`` equilibria and
        cycles (the full sets live in the canonical JSON report).
        """
        state = "complete" if self.complete else f"partial ({self.pending} pending)"
        lines = [
            f"{self.game}/{self.mode} n={self.n} ({self.moves} moves, "
            f"movers={self.agent_filter}): {self.n_states} states, "
            f"{self.n_edges} transitions [{state}]"
            + (" [truncated]" if self.truncated else ""),
            f"  equilibria: {self.n_equilibria}",
        ]
        for eq in self.equilibria[:max_listed]:
            lines.append(f"    {eq}  basin={self.basin_sizes.get(eq, 0)}")
        if self.n_equilibria > max_listed:
            lines.append(f"    … and {self.n_equilibria - max_listed} more "
                         "(see report.json)")
        if self.greedy_equilibria is not None:
            lines.append(
                f"  greedy equilibria (GE): {len(self.greedy_equilibria)}"
            )
        if self.cycles:
            lines.append(f"  best-response cycles (non-trivial SCCs): {len(self.cycles)}")
            for c in self.cycles[:max_listed]:
                lines.append(
                    f"    {len(c['states'])} states, witness length {len(c['witness'])}"
                )
            if len(self.cycles) > max_listed:
                lines.append(f"    … and {len(self.cycles) - max_listed} more")
        else:
            lines.append("  best-response cycles: none")
        if self.longest_improving_path is not None:
            lines.append(f"  longest improving path: {self.longest_improving_path}")
        else:
            lines.append("  longest improving path: unbounded (cycles present)")
        return "\n".join(lines)


def build_report(
    graph: ResponseGraph,
    game: Game,
    moves: str,
    agent_filter: str,
    n: int,
    game_name: Optional[str] = None,
) -> ExplorationReport:
    """Analyse an explored graph into its census report."""
    expanded = [i for i, t in enumerate(graph.transitions) if t is not None]
    succ: List[List[int]] = [
        (graph.successors(i) if graph.transitions[i] is not None else [])
        for i in range(graph.n_states)
    ]
    sinks = graph.sinks()
    keys = graph.keys

    sccs = _tarjan_sccs(graph.n_states, succ)
    nontrivial = [c for c in sccs if len(c) > 1]
    cycles = sorted(
        (
            {
                "states": sorted(keys[i].hex() for i in comp),
                "witness": _witness_cycle(graph, comp),
            }
            for comp in nontrivial
        ),
        key=lambda c: c["states"][0],
    )

    # basin of an equilibrium: states that can reach it (reverse BFS)
    rev: List[List[int]] = [[] for _ in range(graph.n_states)]
    for i in expanded:
        for j in succ[i]:
            rev[j].append(i)
    basin_sizes: Dict[str, int] = {}
    for s in sinks:
        seen = {s}
        stack = [s]
        while stack:
            i = stack.pop()
            for j in rev[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        basin_sizes[keys[s].hex()] = len(seen)

    longest = None if nontrivial else _longest_path(graph.n_states, succ)

    # greedy equilibria (GE) alongside the sinks.  A pure function of
    # (graph, game rules), never of discovery order:
    # * under moves="greedy" the sinks *are* the GE;
    # * games whose full move set is single-edge have GE == NE == sinks;
    # * otherwise (BG, bilateral) a brute single-edge-deviation scan over
    #   the states, run only on complete, untruncated, small censuses so
    #   a half-drained shard never reports a scheduling-dependent set.
    greedy_eq: Optional[List[str]] = None
    if moves == "greedy" or game.moves_are_greedy():
        greedy_eq = sorted(keys[s].hex() for s in sinks)
    elif graph.complete and not graph.truncated and graph.n_states <= _GREEDY_SCAN_MAX:
        greedy_eq = sorted(
            keys[i].hex()
            for i in range(graph.n_states)
            if game.is_greedy_stable(graph.network(i))
        )

    pending = len(graph.pending())
    return ExplorationReport(
        game=game_name or getattr(game, "name", type(game).__name__),
        mode=game.mode.value,
        alpha=float(game.alpha),
        n=int(n),
        moves=moves,
        agent_filter=agent_filter,
        n_states=graph.n_states,
        n_edges=graph.n_edges,
        equilibria=sorted(keys[s].hex() for s in sinks),
        greedy_equilibria=greedy_eq,
        basin_sizes=basin_sizes,
        cycles=cycles,
        longest_improving_path=longest,
        complete=graph.complete,
        pending=pending,
        truncated=graph.truncated,
        graph=graph,
    )


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


def _shard_of(key: bytes, k: int) -> int:
    """Deterministic shard assignment of a state key."""
    return int.from_bytes(key[:8], "big") % k


def _expand_states(
    expander: Expander, items: Sequence[Tuple[bytes, bytes]], n: int
) -> List[Tuple[str, List[list], List[Tuple[str, str]]]]:
    """Expand ``(key, blob)`` states on ``n`` vertices, a pass-sized
    chunk at a time.

    Each chunk is decoded and every agent of every state in it announced
    to the backend at once, so one packed pass prices the whole chunk's
    ``D(G - u)`` (every moveset prices every agent, so none is wasted),
    and then one block call of the game prices all their moves
    (:meth:`~repro.statespace.expand.Expander.agent_answers`).  Returns, per state, ``(key hex, succ rows, successor (key, blob)
    hex pairs)``.
    """
    out = []
    per_chunk = max(1, incremental._PASS_ENTRIES // max(1, n ** 3))
    for start in range(0, len(items), per_chunk):
        chunk = items[start:start + per_chunk]
        nets = [decode_state(blob) for _, blob in chunk]
        expander.backend.prefetch_deviations([(net, range(net.n)) for net in nets])
        for (key, _), net, answers in zip(chunk, nets, expander.agent_answers(nets)):
            rows: List[list] = []
            succs: List[Tuple[str, str]] = []
            for t, succ_net in expander.expand_with_successors(net, answers):
                rows.append([int(t.agent), t.move_dict(), t.succ_key.hex()])
                succs.append((t.succ_key.hex(), encode_state(succ_net).hex()))
            out.append((key.hex(), rows, succs))
    return out


def _expand_chunk(args) -> List[Tuple[str, List[list], List[Tuple[str, str]]]]:
    """Worker body: :func:`_expand_states` with a fresh expander.
    Expansion is deterministic, so worker-local memo state affects speed
    only."""
    game, moves, agent_filter, items, n = args
    return _expand_states(Expander(game, moves=moves, agent_filter=agent_filter), items, n)


def explore(
    game: Game,
    start: Optional[Network] = None,
    *,
    n: Optional[int] = None,
    moves: str = "best",
    agent_filter: str = "all",
    backend: Optional[DistanceBackend] = None,
    max_states: int = DEFAULT_MAX_STATES,
    store: Union[ExplorationStore, str, None] = None,
    shard: Tuple[int, int] = (0, 1),
    max_expansions: Optional[int] = None,
    n_jobs: int = 1,
    game_name: Optional[str] = None,
) -> ExplorationReport:
    """Explore the response graph of ``(game, moves, agent_filter)``.

    Parameters
    ----------
    start / n:
        exactly one must be given.  ``start`` seeds the frontier with
        one network (the reachable component); ``n`` seeds it with
        *every* connected configuration on ``n`` vertices
        (:func:`enumerate_states`) — the exhaustive census.
    moves / agent_filter:
        the transition rules (see :mod:`.expand`).
    backend:
        the :class:`~repro.graphs.incremental.DistanceBackend` of the
        serial path; ``None`` builds a fresh memo.  Worker processes
        (``n_jobs > 1``) always build their own.
    max_states:
        discovery budget; exceeding it drops further new states and
        marks the report ``truncated`` (conclusions are then partial).
    store:
        an :class:`~repro.statespace.store.ExplorationStore` (or a
        directory path) for kill-safe resumable exploration.  Stored
        expansions are loaded first and never recomputed.
    shard:
        ``(i, k)`` — expand only states whose key digest falls in shard
        ``i``.  Successors owned by other shards are left pending; the
        report of a lone shard invocation is marked incomplete until
        every shard has drained (alternate or parallelise invocations
        over the same store).
    max_expansions:
        cap on *new* expansions this invocation (drain in slices).
    n_jobs:
        worker processes, one pool per call that splits each BFS layer
        among them (1 = serial in-process, keeping one expander and its
        memo).
    """
    if (start is None) == (n is None):
        raise ValueError("pass exactly one of start= or n=")
    if moves not in MOVESETS:
        raise ValueError(f"moves must be one of {MOVESETS}, got {moves!r}")
    if agent_filter not in AGENT_FILTERS:
        raise ValueError(
            f"agent_filter must be one of {AGENT_FILTERS}, got {agent_filter!r}"
        )
    i_shard, k_shard = shard
    if not (0 <= i_shard < k_shard):
        raise ValueError(f"shard must satisfy 0 <= i < k, got {i_shard}/{k_shard}")
    if n_jobs > 1 and backend is not None:
        raise ValueError("n_jobs > 1 requires backend=None "
                         "(worker processes build their own memo)")

    expander = Expander(game, moves=moves, agent_filter=agent_filter, backend=backend)
    with_ownership = expander.with_ownership

    if start is not None:
        seeds = [start]
        size = start.n
    else:
        seeds = enumerate_states(n, with_ownership=with_ownership)
        size = n

    graph = ResponseGraph()
    seed_keys = []
    for net in seeds:
        key = expander.key(net)
        # the manifest fingerprint covers the *requested* seed set even
        # when the budget cuts discovery short, so a resume with a
        # different budget is a loud mismatch, not silent drift
        seed_keys.append(key)
        if key not in graph.index and graph.n_states >= max_states:
            graph.truncated = True
            continue
        graph.intern(key, encode_state(net))

    store_obj: Optional[ExplorationStore] = None
    writer = None
    if store is not None:
        store_obj = store if isinstance(store, ExplorationStore) else ExplorationStore(store)
        store_obj.ensure_manifest(
            manifest_for(game, moves, agent_filter, size, seed_keys, max_states)
        )
        # replay stored expansions: intern parents, record transitions,
        # and intern successors (their blobs derive from parent + move)
        for key_hex, rec in sorted(store_obj.expanded_rows().items()):
            key = bytes.fromhex(key_hex)
            blob = bytes.fromhex(rec["state"])
            idx = graph.intern(key, blob)
            if graph.transitions[idx] is not None:
                continue
            parent = decode_state(blob)
            trans: List[Tuple[int, dict, int]] = []
            for agent, move_dict, succ_hex in rec["succ"]:
                succ_key = bytes.fromhex(succ_hex)
                j = graph.index.get(succ_key)
                if j is None:
                    if graph.n_states >= max_states:
                        graph.truncated = True
                        graph.clipped.add(idx)
                        continue
                    succ_net = parent.copy()
                    move_from_dict(move_dict).apply(succ_net)
                    j = graph.intern(succ_key, encode_state(succ_net))
                trans.append((int(agent), move_dict, j))
            graph.transitions[idx] = trans

    expansions = 0
    budget_hit = False
    pool = ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1 else None
    try:
        while True:
            pending = [
                i for i in graph.pending()
                if _shard_of(graph.keys[i], k_shard) == i_shard
            ]
            if not pending or budget_hit:
                break
            _FRONTIER_DEPTH.set(len(pending))
            pending.sort(key=lambda i: graph.keys[i])
            if max_expansions is not None:
                room = max_expansions - expansions
                if room <= 0:
                    budget_hit = True
                    break
                pending = pending[:room]

            with obs_tracing.span("explore.layer", pending=len(pending)):
                items = [(graph.keys[i], graph.blobs[i]) for i in pending]
                if pool is not None and len(pending) > 1:
                    jobs = min(int(n_jobs), len(pending))
                    args = [(game, moves, agent_filter, items[c::jobs], size)
                            for c in range(jobs)]
                    results = [r for batch in pool.map(_expand_chunk, args) for r in batch]
                    results.sort(key=lambda r: r[0])
                else:
                    # serial path: one persistent expander and its memo
                    results = _expand_states(expander, items, size)
            _EXPANSIONS.inc(len(results))

            for key_hex, rows, succs in results:
                idx = graph.index[bytes.fromhex(key_hex)]
                trans: List[Tuple[int, dict, int]] = []
                for (agent, move_dict, succ_hex), (s_hex, s_blob_hex) in zip(rows, succs):
                    succ_key = bytes.fromhex(succ_hex)
                    j = graph.index.get(succ_key)
                    if j is None:
                        if graph.n_states >= max_states:
                            graph.truncated = True
                            graph.clipped.add(idx)
                            continue
                        j = graph.intern(succ_key, bytes.fromhex(s_blob_hex))
                    trans.append((int(agent), move_dict, j))
                graph.transitions[idx] = trans
                expansions += 1
                if store_obj is not None:
                    if writer is None:
                        writer = store_obj.open_writer((i_shard, k_shard))
                    store_obj.append(writer, {"key": key_hex,
                                              "state": graph.blobs[idx].hex(),
                                              "succ": rows})
    finally:
        if pool is not None:
            pool.shutdown()
        if writer is not None:
            writer.close()

    report = build_report(graph, game, moves, agent_filter, size, game_name=game_name)
    return report


def verify_sinks(report: ExplorationReport, game: Game) -> None:
    """Cross-validate the census against the stability oracle.

    Asserts that the explorer's sink set equals the brute-force
    stability scan over *every* explored state — under the report's own
    stability notion: :func:`repro.analysis.equilibria.is_stable` (pure
    NE) for ``moves="best"|"improving"``, and the single-edge-deviation
    oracle :meth:`~repro.core.games.Game.is_greedy_stable` (GE) for
    ``moves="greedy"``.  When the report carries a
    ``greedy_equilibria`` census it is additionally checked to contain
    every pure NE (NE ⊆ GE).  Raises ``AssertionError`` with the
    offending state keys on any disagreement — used by the test harness
    and available to callers as a self-check.
    """
    from ..analysis.equilibria import is_stable

    graph = report.graph
    if graph is None:
        raise ValueError("report carries no in-memory graph to verify")
    if report.moves == "greedy":
        oracle = lambda net: game.is_greedy_stable(net)  # noqa: E731
    else:
        oracle = lambda net: is_stable(game, net)  # noqa: E731
    brute = {
        graph.keys[i].hex()
        for i in range(graph.n_states)
        if graph.transitions[i] is not None and oracle(graph.network(i))
    }
    explored = set(report.equilibria)
    if brute != explored:
        raise AssertionError(
            f"sink census disagrees with brute-force stability: "
            f"explorer-only={sorted(explored - brute)} "
            f"brute-only={sorted(brute - explored)}"
        )
    if report.greedy_equilibria is not None and report.moves != "greedy":
        ne_only = explored - set(report.greedy_equilibria)
        if ne_only:
            raise AssertionError(
                f"NE ⊆ GE violated: pure equilibria missing from the greedy "
                f"census: {sorted(ne_only)}"
            )
