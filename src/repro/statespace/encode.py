"""Canonical bit-packed state encoding for the response-graph explorer.

A *state* of the transition system is one network configuration
``G = (V, E, o)``.  This module owns the three canonical representations
every consumer shares:

* :func:`packed_state` — the raw bit-packed payload: the ownership
  matrix (or, for games where ownership is meaningless, the strict upper
  triangle of the adjacency matrix) packed 64 vertices per ``uint64``
  word through :func:`repro.graphs.bitkernel.pack_rows`.  ``n^2 / 8``
  bytes instead of the ``n^2`` bool bytes of ``Network.state_key`` —
  the explorer holds hundreds of thousands of these.
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

Like :mod:`repro.graphs.incremental`, this module is duck-typed over
networks (``.A`` / ``.owner`` arrays) and must not import
:mod:`repro.core` at module level — the core's dynamics engine imports
*us* for the canonical key.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from ..graphs.bitkernel import pack_rows, unpack_rows

__all__ = [
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


def packed_state(net, with_ownership: bool = True) -> bytes:
    """Bit-packed canonical payload of a network state.

    With ``with_ownership`` the payload is the packed ownership matrix
    (the right state notion for the asymmetric games — two states with
    equal topology but different owners are different strategy
    profiles).  Without it, only the topology matters (the Swap Game's
    and bilateral game's notion): the packed strict upper triangle of
    the adjacency matrix.
    """
    if with_ownership:
        return pack_rows(np.asarray(net.owner, dtype=bool)).tobytes()
    return pack_rows(np.triu(np.asarray(net.A, dtype=bool), 1)).tobytes()


def state_key(net, with_ownership: bool = True) -> bytes:
    """The canonical 16-byte content digest of a network state.

    Pure function of ``(n, state notion, packed payload)`` — equal iff
    the states are equal under the chosen notion.  Every visited-state
    set in the repo (cycle detection, trajectory annotation, state-space
    exploration) uses this one helper.
    """
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    h.update(int(net.A.shape[0]).to_bytes(4, "little"))
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
    n = int(net.A.shape[0])
    return (
        bytes([_BLOB_VERSION])
        + n.to_bytes(4, "little")
        + pack_rows(np.asarray(net.owner, dtype=bool)).tobytes()
    )


def decode_state(blob: bytes, labels: Optional[Sequence[str]] = None):
    """Rebuild a :class:`~repro.core.network.Network` from a blob."""
    from ..core.network import Network  # deferred: core imports this module

    if not blob or blob[0] != _BLOB_VERSION:
        raise ValueError(
            f"not a statespace blob (version byte {blob[:1]!r}, "
            f"expected {_BLOB_VERSION})"
        )
    n = int.from_bytes(blob[1:5], "little")
    words = (n + 63) // 64
    payload = blob[5:]
    if len(payload) != n * words * 8:
        raise ValueError(
            f"blob payload is {len(payload)} bytes; expected {n * words * 8} "
            f"for n={n}"
        )
    packed = np.frombuffer(payload, dtype=np.uint64).reshape(n, words)
    # frombuffer yields a read-only view; the Network must stay mutable
    # (the expander applies moves in place), so materialise a copy
    owner = unpack_rows(packed, n).copy()
    A = owner | owner.T
    return Network(A, owner, labels=list(labels) if labels is not None else None)
