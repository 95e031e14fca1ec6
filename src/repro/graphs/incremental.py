"""The distance backend: the queries the game layer is generic over.

Every distance a game needs is ``D(G)`` (cost vectors) or ``D(G - u)``:
a shortest path from ``u`` never revisits ``u``, so one APSP of
``G - u`` prices *every* deviation of ``u`` (see
:mod:`repro.core.best_response`).  A :class:`DistanceBackend` answers
both queries and may memoise whole best responses.

:class:`IncrementalBackend` is the one implementation every run uses.

* ``D(G - u)`` is keyed on the adjacency bytes and the agent, since
  distances ignore ownership.  The memo holds the last *pass*: either
  one per-agent rebuild or, for the ``(network, agents)`` requests a
  caller announces through
  :meth:`~IncrementalBackend.prefetch_deviations`, one call of
  :func:`bitkernel.deviation_distances_block` over many graphs at once.
  A pass never holds more than ``_PASS_ENTRIES`` float64 entries.
* ``D(G)`` is derived from a held ``D(G - u)`` (call it ``D⁻``) in
  ``O(n^2)``: ``D(G) = min(D⁻(x, y), r(x) + r(y))`` with
  ``r(x) = 1 + min_{w in N(u)} D⁻(w, x)`` and ``r(u) = 0``.  A move by
  ``u`` changes only edges at ``u``, so ``G' - u = G - u`` and the
  mover's matrix carries across its own move.  Only when no held matrix
  fits does one routed APSP run (:class:`IncrementalAPSP`).
* Best responses are memoised per ``(game rules, agent)`` for the
  current state (adjacency and ownership bytes) and dropped by the
  first query on any other state.

Every entry point that prices distances takes ``backend=None``, and
:func:`resolve_backend` gives ``None`` its one meaning: a fresh
:class:`IncrementalBackend`.

Everything here works on plain adjacency matrices plus a duck-typed
network object exposing ``.A`` and ``.owner`` — this module must not
import :mod:`repro.core` (the core imports the graphs layer).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

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

    def prefetch_deviations(self, requests: Sequence[Tuple[object, Sequence[int]]]) -> None:
        """Announce that ``D(G - u)`` of the ``agents`` of every
        ``(net, agents)`` request is asked for next."""

    def cached_best_response(self, game, net, u: int):
        """Memoised best response for ``(game, net, u)``, or ``None``."""

    def store_best_response(self, game, net, u: int, br) -> None:
        """Record a freshly computed best response."""


#: the most float64 entries one pass of ``D(G - u)`` computes and holds:
#: one 32-agent block at n = 100 (about 2.4 MiB)
_PASS_ENTRIES = 32 * 100 * 100


def _adjacency_key(net) -> bytes:
    """The bytes ``D(G - u)`` and ``D(G)`` are keyed on."""
    return np.asarray(net.A, dtype=bool).tobytes()


def _from_key(key: bytes) -> np.ndarray:
    """The boolean adjacency matrix whose bytes are ``key``."""
    n = math.isqrt(len(key))
    return np.frombuffer(key, dtype=bool).reshape(n, n)


class IncrementalBackend:
    """One pass of ``D(G - u)``, the ``D(G)`` derived from it, and the
    best responses of the current network state.

    An instance is cheap to create; give each run its own.
    """

    def __init__(self) -> None:
        self._apsp = IncrementalAPSP()
        #: adjacency bytes and ``D(G)`` of the last full query
        self._full: Tuple[Optional[bytes], Optional[np.ndarray]] = (None, None)
        #: adjacency bytes -> agent -> ``D(G - u)``: the last pass
        self._deviation: Dict[bytes, Dict[int, np.ndarray]] = {}
        #: the adjacency last queried and its entry of ``_deviation``
        #: (an unchanged adjacency costs a compare, not a hash)
        self._recent: Tuple[Optional[bytes], Dict[int, np.ndarray]] = (None, {})
        #: the last announcement, cut into passes of adjacency bytes ->
        #: agents; a pass is computed when one of its matrices is asked for
        self._passes: List[Dict[bytes, List[int]]] = []
        #: (adjacency bytes, agent) -> index of its announced pass
        self._announced: Dict[Tuple[bytes, int], int] = {}
        #: adjacency and ownership bytes of the state ``_best`` belongs to
        self._state = (None, None)
        #: (game rules token, agent) -> best response in the current state
        self._best: Dict[tuple, object] = {}

    def _sync(self, net) -> None:
        """Drop the best responses unless they belong to ``net``'s state."""
        state = (net.A.tobytes(), net.owner.tobytes())
        if state != self._state:
            self._state = state
            self._best = {}

    def _hold(self, held: Dict[bytes, Dict[int, np.ndarray]]) -> None:
        """Make ``held`` the pass the memo holds."""
        self._deviation = held
        self._recent = (None, {})

    def full_distances(self, net) -> np.ndarray:
        _FULL.inc()
        key = _adjacency_key(net)
        if key != self._full[0]:
            A = _from_key(key)
            held = self._held_for(A, key)
            if held is None:
                D = self._apsp.distances(A)
            else:
                u, Dm = held
                nbrs = np.flatnonzero(A[u])
                r = (Dm[nbrs].min(axis=0) + 1.0 if nbrs.size
                     else np.full(A.shape[0], np.inf))
                r[u] = 0.0
                D = np.minimum(Dm, r[:, None] + r[None, :])
            self._full = (key, D)
        return self._full[1]

    def _held_for(self, A: np.ndarray, key: bytes):
        """``(u, D(G - u))`` of a held matrix with ``G - u`` equal to
        ``A - u``, or ``None``.

        A matrix of the same adjacency fits.  So does one of an
        adjacency that differs from ``A`` only in edges at ``u`` — the
        mover's own, across its move: then every changed edge counts
        once in ``deg[u]`` and twice in ``deg.sum()``.  (A buy fits
        both of its endpoints, and both are right.)
        """
        same = self._deviation.get(key)
        if same:
            return next(iter(same.items()))
        keys = [k for k in self._deviation if len(k) == len(key)]
        if not keys:
            return None
        n = A.shape[0]
        stack = np.frombuffer(b"".join(keys), dtype=bool).reshape(len(keys), n, n)
        deg = (stack ^ A).sum(axis=2)
        fits = 2 * deg == deg.sum(axis=1, keepdims=True)
        for g in np.flatnonzero(fits.any(axis=1)).tolist():
            for u, Dm in self._deviation[keys[g]].items():
                if fits[g, u]:
                    return u, Dm
        return None

    def deviation_distances(self, net, u: int) -> np.ndarray:
        _DEVIATION.inc()
        key, u = _adjacency_key(net), int(u)
        if key != self._recent[0]:
            self._recent = (key, self._deviation.get(key, {}))
        D = self._recent[1].get(u)
        if D is not None:
            return D
        index = self._announced.get((key, u))
        if index is not None:
            # one packed kernel call for the whole announced pass
            _BLOCK.inc()
            groups = self._passes[index]
            blocks = bitkernel.deviation_distances_block(
                [(_from_key(k), agents) for k, agents in groups.items()])
            self._hold({k: dict(zip(agents, block))
                        for (k, agents), block in zip(groups.items(), blocks)})
            return self._deviation[key][u]
        mask = np.ones(net.A.shape[0], dtype=bool)
        mask[u] = False
        D = adj.all_pairs_distances_fast(net.A, mask=mask)
        self._hold({key: {u: D}})
        return D

    def prefetch_deviations(self, requests: Sequence[Tuple[object, Sequence[int]]]) -> None:
        """Announce ``D(G - u)`` of the agents of every ``(net, agents)``
        request, priced in packed passes.

        Requests are deduplicated by adjacency, so states differing only
        in ownership share their matrices, and cut into passes of at
        most ``_PASS_ENTRIES`` entries.  A pass runs when the first of
        its matrices is asked for, and then replaces the held one.  The
        announcement replaces the one before.  One too small for the
        packed pass to pay off (:func:`bitkernel.enabled_block`) is left
        to the per-agent rebuild of :meth:`deviation_distances`.
        """
        items: Dict[Tuple[bytes, int], None] = {}
        for net, agents in requests:
            key = _adjacency_key(net)
            for u in agents:
                items[(key, int(u))] = None
        self._passes, self._announced = [], {}
        if not items:
            return
        n = math.isqrt(len(next(iter(items))[0]))
        if not bitkernel.enabled_block(n, len(items)):
            return
        size = max(1, _PASS_ENTRIES // max(1, n * n))
        for i, item in enumerate(items):
            if i % size == 0:
                self._passes.append({})
            self._passes[-1].setdefault(item[0], []).append(item[1])
            self._announced[item] = len(self._passes) - 1

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
