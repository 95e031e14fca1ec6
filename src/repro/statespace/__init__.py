"""repro.statespace — exhaustive response-graph exploration.

Treats a ``(game, moveset, agent filter)`` triple as an explicit
transition system over network configurations:

* :mod:`.encode` — the canonical bit-packed state encoding and the
  repo-wide :func:`~repro.statespace.encode.state_key` content digest;
* :mod:`.expand` — deterministic transition expansion priced
  through any :class:`~repro.graphs.incremental.DistanceBackend`;
* :mod:`.explore` — sharded, resumable frontier BFS + Tarjan SCC into
  an :class:`~repro.statespace.explore.ExplorationReport` (equilibria,
  best-response cycles, basin sizes, longest improving path); the
  dynamics classification (:func:`~repro.statespace.explore.classify_reachable`,
  FIPG/WAG/BR-WAG on a reachable component) reads the same traversal;
* :mod:`.store` — kill-safe JSONL persistence in the campaign-store
  format.

Import discipline: :mod:`repro.core.dynamics` imports :mod:`.encode`
for the canonical state key, while :mod:`.expand`/:mod:`.explore`
import the core — so this package must not load them eagerly.  The
explorer names below resolve lazily (PEP 562) on first access.
"""

from __future__ import annotations

from .encode import decode_state, encode_state, packed_state, state_key, state_key_hex

__all__ = [
    # encode (eager — dependency-free of repro.core)
    "packed_state",
    "state_key",
    "state_key_hex",
    "encode_state",
    "decode_state",
    # expander / explorer / store (lazy — they import repro.core)
    "Expander",
    "Transition",
    "ResponseGraph",
    "ExplorationReport",
    "ClassificationReport",
    "ExplorationStore",
    "enumerate_states",
    "explore",
    "classify_reachable",
    "verify_sinks",
]

_LAZY = {
    "Expander": ("repro.statespace.expand", "Expander"),
    "Transition": ("repro.statespace.expand", "Transition"),
    "ResponseGraph": ("repro.statespace.explore", "ResponseGraph"),
    "ExplorationReport": ("repro.statespace.explore", "ExplorationReport"),
    "ClassificationReport": ("repro.statespace.explore", "ClassificationReport"),
    "ExplorationStore": ("repro.statespace.store", "ExplorationStore"),
    "enumerate_states": ("repro.statespace.explore", "enumerate_states"),
    "explore": ("repro.statespace.explore", "explore"),
    "classify_reachable": ("repro.statespace.explore", "classify_reachable"),
    "verify_sinks": ("repro.statespace.explore", "verify_sinks"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    # Bind every lazy name this module serves, not just the requested
    # one.  Importing the ``.explore`` submodule sets the package
    # attribute ``explore`` to the *module*, shadowing the ``explore``
    # function of the same name; rebinding afterwards guarantees the
    # function wins.  ``import repro`` runs this path eagerly (the
    # top-level ``from .statespace import explore``), so the binding is
    # settled before any user code can observe the module instead.
    for lazy_name, (module_name, attr) in _LAZY.items():
        if module_name == target[0]:
            globals()[lazy_name] = getattr(module, attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
