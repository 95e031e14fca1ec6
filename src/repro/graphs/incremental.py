"""The distance backend: the queries the game layer is generic over.

Every distance a game needs is ``D(G)`` (cost vectors) or ``D(G - u)``:
a shortest path from ``u`` never revisits ``u``, so one APSP of
``G - u`` prices *every* deviation of ``u`` (see
:mod:`repro.core.best_response`).  A :class:`DistanceBackend` answers
both queries and may memoise whole best responses.

:class:`IncrementalBackend` is the one implementation every run uses.
It memoises for the *current* network state only, keyed on its
adjacency and ownership bytes and dropped by the first query on any
other state.  ``D(G)`` is one routed rebuild (:class:`IncrementalAPSP`);
``D(G - u)`` is one rebuild per agent or, for a block of agents a scan
announces through :meth:`~IncrementalBackend.prefetch_deviations`, one
packed pass of :func:`bitkernel.deviation_distances_block`; best
responses are memoised per ``(game rules, agent)``.  It never holds
more than one block of ``D(G - u)`` matrices.

Nothing is repaired or kept across moves: a converging move changes
``D(G - u)`` for almost every ``u``, so distances of earlier states are
rarely reusable.

Every entry point that prices distances takes ``backend=None``, and
:func:`resolve_backend` gives ``None`` its one meaning: a fresh
:class:`IncrementalBackend`.

Everything here works on plain adjacency matrices plus a duck-typed
network object exposing ``.A`` and ``.owner`` — this module must not
import :mod:`repro.core` (the core imports the graphs layer).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from . import adjacency as adj
from . import bitkernel

__all__ = [
    "IncrementalAPSP",
    "DistanceBackend",
    "IncrementalBackend",
    "resolve_backend",
]

# pre-bound obs handles: per-event cost is one attribute load + one
# enabled-branch + one dict update (nothing when the meter is off)
_BACKEND_CALLS = obs_metrics.counter(
    "repro_backend_calls_total",
    "DistanceBackend queries by operation",
    ("op",))
_FULL = _BACKEND_CALLS.labels(op="full")
_DEVIATION = _BACKEND_CALLS.labels(op="deviation")
_BLOCK = _BACKEND_CALLS.labels(op="deviation_block")


class IncrementalAPSP:
    """``D(G)`` memoised for the most recently queried adjacency.

    :meth:`distances` rebuilds with one routed APSP whenever the queried
    adjacency differs bytewise from the previous query's, and returns
    the stored matrix otherwise — callers never notify it of moves.
    """

    def __init__(self) -> None:
        self._A_bytes: Optional[bytes] = None
        self._D: Optional[np.ndarray] = None

    def distances(self, A: np.ndarray) -> np.ndarray:
        """APSP matrix of ``A`` — a snapshot callers must not write to."""
        A = np.asarray(A, dtype=bool)
        A_bytes = A.tobytes()
        if A_bytes != self._A_bytes:
            self._D = adj.all_pairs_distances_fast(A)
            self._A_bytes = A_bytes
        return self._D


class DistanceBackend(Protocol):
    """The distance/deviation queries the game layer is generic over."""

    def full_distances(self, net) -> np.ndarray:
        """APSP matrix of the current network."""

    def deviation_distances(self, net, u: int) -> np.ndarray:
        """APSP matrix of ``G - u`` (prices every deviation of ``u``)."""

    def prefetch_deviations(self, net, agents: Sequence[int]) -> None:
        """Announce that ``D(G - u)`` of ``agents`` is asked for next."""

    def cached_best_response(self, game, net, u: int):
        """Memoised best response for ``(game, net, u)``, or ``None``."""

    def store_best_response(self, game, net, u: int, br) -> None:
        """Record a freshly computed best response."""


class IncrementalBackend:
    """``D(G)``, one block of ``D(G - u)`` and the best responses of the
    current network state.

    The state is identified by its adjacency and ownership bytes; the
    first query on any other state drops the whole memo, so an answer is
    only ever served in the state it was computed in.  An instance is
    cheap to create; give each run its own.
    """

    def __init__(self) -> None:
        self._full = IncrementalAPSP()
        #: adjacency and ownership bytes of the state the memo belongs to
        self._state = (None, None)
        #: agent -> ``D(G - u)`` in the current state (at most one block)
        self._deviation: Dict[int, np.ndarray] = {}
        #: (game rules token, agent) -> best response in the current state
        self._best: Dict[tuple, object] = {}

    def _sync(self, net) -> None:
        """Drop the memo unless it belongs to ``net``'s current state."""
        state = (net.A.tobytes(), net.owner.tobytes())
        if state != self._state:
            self._state = state
            self._deviation = {}
            self._best = {}

    def full_distances(self, net) -> np.ndarray:
        # D(G) has its own snapshot key; the memo below is synced by
        # every other query
        _FULL.inc()
        return self._full.distances(net.A)

    def deviation_distances(self, net, u: int) -> np.ndarray:
        _DEVIATION.inc()
        self._sync(net)
        u = int(u)
        D = self._deviation.get(u)
        if D is None:
            mask = np.ones(net.A.shape[0], dtype=bool)
            mask[u] = False
            D = adj.all_pairs_distances_fast(net.A, mask=mask)
            self._deviation = {u: D}
        return D

    def prefetch_deviations(self, net, agents: Sequence[int]) -> None:
        """Compute ``D(G - u)`` of all ``agents`` in one packed pass.

        The block replaces the one held before.  A block too small for
        the packed pass to pay off (:func:`bitkernel.enabled_block`) is
        left to the per-agent rebuild of :meth:`deviation_distances`.
        """
        self._sync(net)
        agents = [int(u) for u in agents]
        if not bitkernel.enabled_block(net.A.shape[0], len(agents)):
            return
        _BLOCK.inc()
        block = bitkernel.deviation_distances_block(net.A, agents)
        self._deviation = dict(zip(agents, block))

    def cached_best_response(self, game, net, u: int):
        self._sync(net)
        return self._best.get((game.cache_token(), int(u)))

    def store_best_response(self, game, net, u: int, br) -> None:
        self._sync(net)
        self._best[(game.cache_token(), int(u))] = br


def resolve_backend(backend: Optional[DistanceBackend] = None) -> DistanceBackend:
    """``backend`` itself, or a fresh :class:`IncrementalBackend` for ``None``.

    The spec strings of earlier builds (``"dense"``, ``"auto"``,
    ``"incremental"``) are retired; passing one raises a ``TypeError``
    that names it instead of failing later on a missing method.
    """
    if backend is None:
        return IncrementalBackend()
    if isinstance(backend, str):
        raise TypeError(
            f"distance backend spec strings are retired (got {backend!r}); "
            "pass None for the per-state memo or a DistanceBackend instance")
    return backend
