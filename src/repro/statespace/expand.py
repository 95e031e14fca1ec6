"""Transition expander: price all agents' moves out of many states.

The explorer treats a ``(game, moveset, agent filter)`` triple as a
transition system over network configurations; this module computes one
state's outgoing transitions.  Everything is deterministic — moves come
out in the games' canonical order (agents ascending, the GBG operation
preference inside each best-response set) — so exploration is exactly
reproducible across resumes, shards and worker processes.

* ``moves="best"`` expands each agent's full best-response set (the
  paper's best-response dynamics: any tie-break rule's trajectory is a
  path in this graph).
* ``moves="improving"`` expands *every* strictly improving move (the
  better-response digraph of the FIPG/WAG classification).
* ``moves="greedy"`` expands every strictly improving *single-edge*
  deviation (buy one / delete one / swap one edge) — Lenzner's greedy
  dynamics; the sinks of this graph are the greedy equilibria (GE),
  a superset of the pure NE.

The *agent filter* is the policy-moveset axis: which unhappy agents the
activation discipline would ever let move.  ``"all"`` is the full
response graph; ``"maxcost"`` restricts movers to the highest-cost
unhappy agents (every tie-break of the paper's max cost policy is then
a path in the restricted graph); ``"first_unhappy"`` keeps only the
smallest-index unhappy agent (that policy's deterministic process).

The explorer expands each state once, so no best response is reused
across states.  :meth:`Expander.agent_answers` prices every agent of a
whole chunk of states with one block call of the game
(:meth:`~repro.core.games.Game.best_responses_block` or
:meth:`~repro.core.games.Game.improving_moves_block`), over the
``D(G - u)`` of the packed pass the explorer announced for the chunk
(``statespace.explore._expand_states``).  The call is lazy: it prices
a block of at most ``SCAN_BLOCK_CAP`` pairs at a time as the states are
expanded, so the chunk never holds more than one block's answers.  Each
state's moves then serve both its unhappy test and its transitions.
Best responses reach the transitions through
:meth:`~repro.core.games.Game.best_responses` and the backend's
per-state memo, so the block pass is a prefetch.

Successors are never materialised as networks.  A move changes only
pairs at its mover, so :func:`successor_state` derives a successor's
packed rows (:class:`~repro.statespace.encode.PackedState`) from its
parent's with a few bit operations, and its key and blob come straight
from those rows.  The explorer's store replay derives the successors of
a stored expansion through the same function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.games import EPS, AsymmetricSwapGame, BilateralGame, Game, SwapGame
from ..core.moves import Buy, Delete, Move, Swap, move_to_dict
from ..core.network import Network
from ..graphs.incremental import DistanceBackend, resolve_backend
from .encode import PackedState, encode_state, state_key

__all__ = [
    "AGENT_FILTERS",
    "MOVESETS",
    "Transition",
    "Expander",
    "ownership_matters",
    "successor_state",
]

MOVESETS = ("best", "improving", "greedy")
AGENT_FILTERS = ("all", "maxcost", "first_unhappy")


def ownership_matters(game: Game) -> bool:
    """The state notion of a game: whether two states with the same
    topology but different ownership are distinct.

    Ownership is part of the strategy profile in the asymmetric games
    (ASG/GBG/BG) but meaningless in the SG (either endpoint may swap)
    and in the bilateral game (both endpoints pay)."""
    if isinstance(game, AsymmetricSwapGame):
        return True
    return not isinstance(game, (SwapGame, BilateralGame))


def successor_state(parent: PackedState, owner: np.ndarray, move: Move) -> PackedState:
    """The packed state ``move`` leads to from ``parent``.

    ``owner`` is the parent's ownership matrix; only a strategy change
    reads it, for the mover's current strategy.  Same bits as
    ``move.apply`` on a copy of the parent, without its checks: the
    move must be legal in the parent.
    """
    u = move.agent
    if isinstance(move, Swap):
        return parent.successor(u, (move.old,), (move.new,))
    if isinstance(move, Buy):
        return parent.successor(u, (), (move.target,))
    if isinstance(move, Delete):
        return parent.successor(u, (move.target,), ())
    held = owner[u] | owner[:, u] if move.bilateral else owner[u]
    current = set(np.flatnonzero(held).tolist())
    return parent.successor(u, current - move.new_targets, move.new_targets - current)


@dataclass(frozen=True)
class Transition:
    """One directed edge of the response graph."""

    agent: int
    move: Move
    #: canonical :func:`~repro.statespace.encode.state_key` of the successor
    succ_key: bytes

    def move_dict(self) -> dict:
        """JSON form of the move (stable, see ``move_to_dict``)."""
        return move_to_dict(self.move)


class Expander:
    """Deterministic successor enumeration for one triple.

    Parameters
    ----------
    game:
        the game whose move rules define the transitions.
    moves:
        ``"best"`` (best-response graph), ``"improving"``
        (better-response graph) or ``"greedy"`` (improving single-edge
        deviations — greedy-equilibrium dynamics).
    agent_filter:
        ``"all"`` | ``"maxcost"`` | ``"first_unhappy"`` — which unhappy
        agents may move (see the module docstring).
    backend:
        the :class:`~repro.graphs.incremental.DistanceBackend` pricing
        every state; ``None`` builds a fresh
        :class:`~repro.graphs.incremental.IncrementalBackend`.
    """

    def __init__(
        self,
        game: Game,
        moves: str = "best",
        agent_filter: str = "all",
        backend: Optional[DistanceBackend] = None,
    ):
        if moves not in MOVESETS:
            raise ValueError(f"moves must be one of {MOVESETS}, got {moves!r}")
        if agent_filter not in AGENT_FILTERS:
            raise ValueError(
                f"agent_filter must be one of {AGENT_FILTERS}, got {agent_filter!r}"
            )
        self.game = game
        self.moves = moves
        self.agent_filter = agent_filter
        self.backend = resolve_backend(backend)
        self.with_ownership = ownership_matters(game)

    # -- moves -------------------------------------------------------------
    def agent_answers(self, nets: Sequence[Network]) -> Iterator[list]:
        """Per network, per agent, the moveset's answer — a
        :class:`~repro.core.games.BestResponse` for ``"best"``, else the
        ``(move, cost)`` list — with every agent of every network priced
        by one block call of the game.  Lazy: the answers are priced a
        block at a time as the networks are read."""
        requests = ((net, u) for net in nets for u in range(net.n))
        if self.moves == "best":
            flat = self.game.best_responses_block(requests, self.backend)
        else:
            flat = self.game.improving_moves_block(
                requests, self.backend, greedy=self.moves == "greedy")
        for net in nets:
            yield list(itertools.islice(flat, net.n))

    def _agent_moves(self, net: Network, answers: list) -> List[List[Move]]:
        """Every agent's moves in ``net``, from its priced answers.

        Best responses are read through :meth:`Game.best_responses`, the
        query every run makes, with the answers handed to the backend's
        per-state memo first: the block pass is a prefetch, and a
        backend that keeps no memo prices each agent again on its own.
        The round trip serves only the benchmark tracer, which times
        ``Game.best_responses`` and the memo's calls but not the block
        entry points; once it wraps those, or the memo goes, read
        ``[br.moves for br in answers]`` directly.
        """
        if self.moves != "best":
            return [[m for m, _ in scored] for scored in answers]
        for u, br in enumerate(answers):
            self.backend.store_best_response(self.game, net, u, br)
        return [self.game.best_responses(net, u, backend=self.backend).moves
                for u in range(net.n)]

    def _movers(self, net: Network, unhappy: List[int]) -> List[int]:
        """Apply the agent filter to the unhappy set."""
        if not unhappy or self.agent_filter == "all":
            return unhappy
        if self.agent_filter == "first_unhappy":
            return [unhappy[0]]
        # maxcost: every unhappy agent whose current cost ties the max
        # (each is a possible pick of the paper's max cost policy)
        costs = self.game.cost_vector(net, backend=self.backend)
        top = max(costs[u] for u in unhappy)
        return [u for u in unhappy if costs[u] >= top - EPS]

    # -- expansion ---------------------------------------------------------
    def expand(self, net: Network) -> List[Transition]:
        """All outgoing transitions of ``net``, in canonical order.

        An empty list means the state is a sink — a pure Nash
        equilibrium under the configured moveset and agent filter.
        """
        return [t for t, _ in self.expand_with_successors(net)]

    def expand_with_successors(
        self, net: Network, answers: Optional[list] = None
    ) -> List[Tuple[Transition, bytes]]:
        """:meth:`expand` plus each transition's successor blob
        (:func:`~repro.statespace.encode.encode_state`).

        Key and blob come from the successor's packed rows
        (:func:`successor_state`); no successor network is built.
        ``answers`` are the agents' answers in ``net`` when already
        priced (an entry of :meth:`agent_answers`).
        """
        if answers is None:
            answers = next(self.agent_answers([net]))
        moves = self._agent_moves(net, answers)
        unhappy = [u for u in range(net.n) if moves[u]]
        parent = PackedState.of(net, self.with_ownership)
        out: List[Tuple[Transition, bytes]] = []
        for u in self._movers(net, unhappy):
            for move in moves[u]:
                succ = successor_state(parent, net.owner, move)
                key = state_key(succ, self.with_ownership)
                out.append((Transition(u, move, key), encode_state(succ)))
        return out
