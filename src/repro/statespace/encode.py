"""Canonical bit-packed state encoding for the response-graph explorer.

A *state* of the transition system is one network configuration
``G = (V, E, o)``.  This module owns the canonical representations
every consumer shares:

* :func:`packed_state` — the raw bit-packed payload: the ownership
  matrix (or, for games where ownership is meaningless, the strict upper
  triangle of the adjacency matrix) packed 64 vertices per ``uint64``
  word through :func:`repro.graphs.bitkernel.pack_rows`.  ``n^2 / 8``
  bytes instead of the ``n^2`` bool bytes of ``Network.state_key`` —
  the explorer holds hundreds of thousands of these.
* :class:`PackedState` — the same two payloads read as Python ints.
  Every move changes only pairs at its mover, so a successor's payloads
  are its parent's with a few bits cleared and set
  (:meth:`PackedState.successor`): the explorer derives successor keys
  and blobs without building a network.
* :func:`state_key` — a fixed-size (16-byte) blake2b content digest of
  the packed payload plus the state notion and ``n``.  This is **the**
  canonical hashable state identity: the dynamics engine's cycle
  detector, :func:`repro.analysis.trajectories.annotate_cycle` and the
  statespace explorer (which the classifier reads) all key visited-state
  sets with it, so the notion of "same state" can never drift between subsystems.
* :func:`encode_state` / :func:`decode_state` — a lossless serialisable
  blob (``n`` header + packed ownership rows; adjacency is implied by
  ``A = O | O^T``), used by the exploration store to persist frontiers
  so a killed run resumes without recomputing a single expansion.
  :func:`decode_state` validates the network it builds; a blob the
  explorer derived itself is priced through :func:`_derived_network`,
  which does not validate it again.

:func:`state_key`, :func:`packed_state` and :func:`encode_state` take a
network or a :class:`PackedState` and return the same bytes for the
same state.  Like :mod:`repro.graphs.incremental`, this module is
duck-typed over networks (``.A`` / ``.owner`` arrays) and must not
import :mod:`repro.core` at module level — the core's dynamics engine
imports *us* for the canonical key.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

import numpy as np

from ..graphs.bitkernel import pack_rows, unpack_rows

__all__ = [
    "PackedState",
    "packed_state",
    "state_key",
    "state_key_hex",
    "encode_state",
    "decode_state",
]

#: digest width of :func:`state_key`.  16 bytes keeps visited-state sets
#: compact while making collisions (2^-64 at a billion states) a
#: non-concern for the paper's state-space sizes.
DIGEST_SIZE = 16

#: serialisation-format version byte of :func:`encode_state` blobs.
_BLOB_VERSION = 1


def _words(n: int) -> int:
    """``uint64`` words per packed row."""
    return (n + 63) // 64


class PackedState:
    """A state as its packed payloads, each read as one little-endian int.

    ``rows`` is the ownership payload: bit ``i * stride + v`` is
    ``owner[i, v]``, with ``stride = 64 * words`` bits per row.  ``top``
    is the topology payload (the strict upper triangle of ``O | O^T``)
    read the same way, or ``None`` when only the ownership notion is
    keyed.
    """

    __slots__ = ("n", "rows", "top")

    def __init__(self, n: int, rows: int, top: Optional[int] = None) -> None:
        self.n = n
        self.rows = rows
        self.top = top

    @classmethod
    def of(cls, net, with_ownership: bool = True) -> "PackedState":
        """The packed state of a network (``top`` only when the
        topology notion is keyed)."""
        rows = int.from_bytes(packed_state(net, True), "little")
        top = (None if with_ownership
               else int.from_bytes(packed_state(net, False), "little"))
        return cls(int(net.A.shape[0]), rows, top)

    def payload(self, with_ownership: bool = True) -> bytes:
        """The :func:`packed_state` bytes of this state."""
        value = self.rows if with_ownership else self.top
        return value.to_bytes(self.n * _words(self.n) * 8, "little")

    def successor(
        self, agent: int, removed: Iterable[int], added: Iterable[int]
    ) -> "PackedState":
        """The state after ``agent`` drops its edges to ``removed``
        (whichever endpoint owns them) and buys edges to ``added``.

        Only bits of ``agent``'s pairs change; the caller vouches that
        ``removed`` are present edges and ``added`` absent ones.
        """
        stride = 64 * _words(self.n)
        row = agent * stride
        clear = put = pair = 0
        for v in removed:
            # both owner bits; the pair's topology bit is one of them
            clear |= (1 << (row + v)) | (1 << (v * stride + agent))
        for v in added:
            put |= 1 << (row + v)
            pair |= 1 << (row + v if agent < v else v * stride + agent)
        top = None if self.top is None else (self.top & ~clear) | pair
        return PackedState(self.n, (self.rows & ~clear) | put, top)


def packed_state(net, with_ownership: bool = True) -> bytes:
    """Bit-packed canonical payload of a network state.

    With ``with_ownership`` the payload is the packed ownership matrix
    (the right state notion for the asymmetric games — two states with
    equal topology but different owners are different strategy
    profiles).  Without it, only the topology matters (the Swap Game's
    and bilateral game's notion): the packed strict upper triangle of
    the adjacency matrix.
    """
    if isinstance(net, PackedState):
        return net.payload(with_ownership)
    if with_ownership:
        return pack_rows(np.asarray(net.owner, dtype=bool)).tobytes()
    return pack_rows(np.triu(np.asarray(net.A, dtype=bool), 1)).tobytes()


def _size(net) -> int:
    return net.n if isinstance(net, PackedState) else int(net.A.shape[0])


def state_key(net, with_ownership: bool = True) -> bytes:
    """The canonical 16-byte content digest of a network state.

    Pure function of ``(n, state notion, packed payload)`` — equal iff
    the states are equal under the chosen notion.  Every visited-state
    set in the repo (cycle detection, trajectory annotation, state-space
    exploration) uses this one helper.
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    h.update(_size(net).to_bytes(4, "little"))
    h.update(b"o" if with_ownership else b"t")
    h.update(packed_state(net, with_ownership))
    return h.digest()


def state_key_hex(net, with_ownership: bool = True) -> str:
    """Hex rendering of :func:`state_key` (JSON stores and reports)."""
    return state_key(net, with_ownership).hex()


def encode_state(net) -> bytes:
    """Lossless blob of a network state (inverse: :func:`decode_state`).

    Layout: 1 version byte, 4-byte little-endian ``n``, then the packed
    ownership rows.  Ownership determines adjacency (``A = O | O^T``),
    so the blob always carries full information regardless of the state
    notion used for keying.
    """
    return (bytes([_BLOB_VERSION]) + _size(net).to_bytes(4, "little")
            + packed_state(net, True))


def _owner_matrix(blob: bytes) -> np.ndarray:
    """The ownership matrix of a blob, after its framing checks."""
    if not blob or blob[0] != _BLOB_VERSION:
        raise ValueError(
            f"not a statespace blob (version byte {blob[:1]!r}, "
            f"expected {_BLOB_VERSION})"
        )
    n = int.from_bytes(blob[1:5], "little")
    words = _words(n)
    payload = blob[5:]
    if len(payload) != n * words * 8:
        raise ValueError(
            f"blob payload is {len(payload)} bytes; expected {n * words * 8} "
            f"for n={n}"
        )
    packed = np.frombuffer(payload, dtype=np.uint64).reshape(n, words)
    # unpacking copies out of the read-only frombuffer view, so the
    # network stays mutable (moves apply in place)
    return unpack_rows(packed, n)


def decode_state(blob: bytes, labels: Optional[Sequence[str]] = None):
    """Rebuild a validated :class:`~repro.core.network.Network` from a
    blob."""
    from ..core.network import Network  # deferred: core imports this module

    owner = _owner_matrix(blob)
    return Network(owner | owner.T, owner,
                   labels=list(labels) if labels is not None else None)


def _derived_network(blob: bytes):
    """The network of a blob the explorer derived itself (seeded from a
    validated network or enumeration, or a successor of one), built
    without validating it again."""
    from ..core.network import Network  # deferred: core imports this module

    owner = _owner_matrix(blob)
    return Network._trusted(owner | owner.T, owner)
