"""The network state ``G = (V, E, o)`` of a network creation process.

A :class:`Network` couples a symmetric adjacency matrix with the
*ownership function* ``o : E -> V`` of Section 1.1: every edge is owned
by exactly one of its endpoints (the agent who pays for it and — in the
asymmetric games — the only agent allowed to move it).  In the Swap Game
ownership is ignored by the rules but still carried along, and in the
bilateral game both endpoints pay half, so ownership is irrelevant there
as well.

Vertices are integers ``0..n-1``; an optional ``labels`` sequence maps
them to the names used in the paper's figures (``"a1"``, ``"b"``, ...).

The class is deliberately a thin, *mutable* state holder with cheap
copies: the dynamics engine clones states along a trajectory, and the
instance verifier hashes canonical keys to detect revisited states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs import adjacency as adj

__all__ = ["Network"]

Edge = Tuple[int, int]


@dataclass
class Network:
    """An undirected network with per-edge ownership.

    Parameters
    ----------
    A:
        symmetric boolean adjacency matrix.
    owner:
        boolean matrix; ``owner[u, v]`` is ``True`` iff ``u`` owns the
        edge ``{u, v}``.  Must satisfy: ``owner[u, v] -> A[u, v]`` and
        every edge has exactly one owner.
    labels:
        optional vertex names (paper figures use names like ``"a1"``).
    """

    A: np.ndarray
    owner: np.ndarray
    labels: Optional[List[str]] = None
    _label_index: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=bool)
        self.owner = np.asarray(self.owner, dtype=bool)
        adj.validate_adjacency(self.A)
        if self.owner.shape != self.A.shape:
            raise ValueError("owner matrix shape must match adjacency shape")
        if (self.owner & ~self.A).any():
            raise ValueError("ownership declared on a non-existent edge")
        both = self.owner & self.owner.T
        if both.any():
            u, v = np.argwhere(both)[0]
            raise ValueError(f"edge ({u},{v}) owned by both endpoints")
        missing = self.A & ~(self.owner | self.owner.T)
        if missing.any():
            u, v = np.argwhere(missing)[0]
            raise ValueError(f"edge ({u},{v}) has no owner")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal number of vertices")
            self._label_index = {name: i for i, name in enumerate(self.labels)}
            if len(self._label_index) != self.n:
                raise ValueError("labels must be unique")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(cls, A: np.ndarray, owner: np.ndarray) -> "Network":
        """An unlabelled network over bool matrices already known to be
        a valid state, skipping :meth:`__post_init__`'s checks (the
        response-graph explorer's own derived states)."""
        net = cls.__new__(cls)
        net.A, net.owner, net.labels, net._label_index = A, owner, None, {}
        return net

    @classmethod
    def from_owned_edges(
        cls,
        n: int,
        owned_edges: Iterable[Edge],
        labels: Optional[Sequence[str]] = None,
    ) -> "Network":
        """Build a network from directed pairs ``(owner, target)``."""
        A = np.zeros((n, n), dtype=bool)
        O = np.zeros((n, n), dtype=bool)
        for u, v in owned_edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if A[u, v]:
                raise ValueError(f"duplicate edge ({u},{v})")
            A[u, v] = A[v, u] = True
            O[u, v] = True
        return cls(A, O, labels=list(labels) if labels is not None else None)

    @classmethod
    def from_labeled_edges(
        cls,
        labels: Sequence[str],
        owned_edges: Iterable[Tuple[str, str]],
    ) -> "Network":
        """Build from ``(owner_label, target_label)`` pairs (paper figures)."""
        index = {name: i for i, name in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("labels must be unique")
        pairs = [(index[u], index[v]) for u, v in owned_edges]
        return cls.from_owned_edges(len(labels), pairs, labels=labels)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of agents."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Number of edges."""
        return adj.num_edges(self.A)

    def index(self, label: str) -> int:
        """Vertex id of a label."""
        return self._label_index[label]

    def label(self, v: int) -> str:
        """Label of a vertex id (falls back to ``str(v)``)."""
        return self.labels[v] if self.labels is not None else str(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return bool(self.A[u, v])

    def owns(self, u: int, v: int) -> bool:
        """``True`` iff ``u`` owns the edge ``{u, v}``."""
        return bool(self.owner[u, v])

    def owned_targets(self, u: int) -> np.ndarray:
        """Targets of the edges owned by ``u`` (the strategy ``S_u``)."""
        return np.flatnonzero(self.owner[u])

    def incoming_neighbors(self, u: int) -> np.ndarray:
        """Neighbours whose edge towards ``u`` is owned by them."""
        return np.flatnonzero(self.owner[:, u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u``."""
        return adj.neighbors(self.A, u)

    def degree(self, u: int) -> int:
        """Number of incident edges."""
        return int(self.A[u].sum())

    def edges_owned_count(self, u: int) -> int:
        """Number of edges owned by ``u`` (the budget/edge-cost multiplier)."""
        return int(self.owner[u].sum())

    def budget_vector(self) -> np.ndarray:
        """Owned-edge count per agent."""
        return self.owner.sum(axis=1).astype(np.int64)

    def is_connected(self) -> bool:
        """Whether the network is connected."""
        return adj.is_connected(self.A)

    # ------------------------------------------------------------------
    # mutation (used by Move.apply)
    # ------------------------------------------------------------------
    def add_edge(self, owner: int, target: int) -> None:
        """Insert the edge ``{owner, target}`` owned by ``owner``."""
        if owner == target:
            raise ValueError("self-loop")
        if self.A[owner, target]:
            raise ValueError(f"edge ({owner},{target}) already present")
        self.A[owner, target] = self.A[target, owner] = True
        self.owner[owner, target] = True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``{u, v}`` and its ownership record."""
        if not self.A[u, v]:
            raise ValueError(f"edge ({u},{v}) not present")
        self.A[u, v] = self.A[v, u] = False
        self.owner[u, v] = self.owner[v, u] = False

    def edge_owner(self, u: int, v: int) -> int:
        """The owner endpoint of the edge ``{u, v}``."""
        if self.owner[u, v]:
            return u
        if self.owner[v, u]:
            return v
        raise ValueError(f"edge ({u},{v}) not present")

    # ------------------------------------------------------------------
    # copies / canonical keys
    # ------------------------------------------------------------------
    def copy(self) -> "Network":
        """Independent deep copy of the state."""
        return Network(self.A.copy(), self.owner.copy(), labels=self.labels)

    def state_key(self, with_ownership: bool = True) -> bytes:
        """Canonical hashable key of the current state.

        With ``with_ownership`` the key distinguishes who owns each edge
        (the right notion of state in the asymmetric games); without it,
        only the topology matters (the Swap Game's notion).
        """
        if with_ownership:
            return self.owner.tobytes()
        return np.triu(self.A, 1).tobytes()

    def owned_edge_list(self) -> List[Edge]:
        """Sorted ``(owner, target)`` pairs."""
        iu, iv = np.nonzero(self.owner)
        return sorted(zip(iu.tolist(), iv.tolist()))

    def describe(self) -> str:
        """Human-readable edge list using labels."""
        parts = [f"{self.label(u)}->{self.label(v)}" for u, v in self.owned_edge_list()]
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable description: labels plus owned edge list."""
        return {
            "n": self.n,
            "labels": list(self.labels) if self.labels is not None else None,
            "owned_edges": [
                [self.label(u), self.label(v)] if self.labels is not None else [u, v]
                for u, v in self.owned_edge_list()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Network":
        """Inverse of :meth:`to_dict`."""
        labels = data.get("labels")
        edges = data["owned_edges"]
        if labels is not None:
            return cls.from_labeled_edges(labels, [tuple(e) for e in edges])
        return cls.from_owned_edges(int(data["n"]), [tuple(e) for e in edges])

    def relabel_copy(self, permutation: Sequence[int]) -> "Network":
        """Return a copy with vertex ``i`` renamed to ``permutation[i]``.

        Used by the instance verifier to check isomorphism claims such as
        "G3 is isomorphic to G0" in Theorem 5.1.
        """
        p = np.asarray(permutation)
        if sorted(p.tolist()) != list(range(self.n)):
            raise ValueError("not a permutation")
        A = np.zeros_like(self.A)
        O = np.zeros_like(self.owner)
        A[np.ix_(p, p)] = self.A
        O[np.ix_(p, p)] = self.owner
        return Network(A, O, labels=self.labels)
