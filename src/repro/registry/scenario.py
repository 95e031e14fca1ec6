"""The declarative experiment spec: one frozen, serializable object per
scenario.

A :class:`ScenarioSpec` names one registered component per axis (game,
policy, dynamics kind, initial topology) plus validated parameters and
the per-trial metrics to report.  It is

* **frozen & hashable** — usable as a dict key and safe to ship to
  worker processes;
* **validated** — construction fails loudly on unknown components,
  unknown parameters, type mismatches and out-of-choice values;
* **JSON round-trippable** — :meth:`to_json` / :meth:`from_json` lose
  nothing (``spec == ScenarioSpec.from_json(spec.to_json())``);
* **versioned** — payloads carry ``scenario_version`` so future layout
  changes can migrate old files instead of misreading them;
* **seed-stable** — see below.

Seed-digest canonical form
--------------------------
Trial seeds derive from ``SeedSequence(campaign_seed, spec.digest(), n)``
(see :func:`repro.experiments.runner.trial_jobs`), and campaign cell
keys and manifests carry the same :meth:`canonical` string.  Its format
is frozen: a spec inside the surface of the paper's figure grids
(sequential dynamics, the ``maxcost``/``random`` policies, a
``budget``/``random``/``rl``/``dl`` topology, a ``mode``/``alpha``
game) renders as the ``repr`` string of the project's first cell type
(``_figure_grid_canonical``), so every stored seed, golden fixture,
campaign cell key and resumable store keeps its bytes.  Every other
scenario canonicalizes to a versioned sorted-JSON form instead.

``metrics`` are deliberately **excluded** from the canonical form
(observational outputs; adding a metric to a running campaign must not
invalidate its stored trials).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .base import REGISTRY

__all__ = [
    "SCENARIO_VERSION",
    "ScenarioSpec",
    "policy_series_label",
]

#: current spec-layout version, stamped into every JSON payload.
SCENARIO_VERSION = 1

Params = Tuple[Tuple[str, Any], ...]
ParamsInput = Union[None, Mapping[str, Any], Params]

#: default metric set: the run's step count and status.
DEFAULT_METRICS: Tuple[str, ...] = ("steps", "status")


def policy_series_label(policy: str) -> str:
    """Legend label of a policy in the paper's plotting style.

    The paper spells its two policies "max cost" and "random"; every
    other registered policy is labelled by its registry name.
    """
    return "max cost" if policy == "maxcost" else policy


def _as_param_tuple(value: ParamsInput) -> Params:
    """Normalise a params field input to a sorted tuple of pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [(k, v) for k, v in value]
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment scenario.

    ``*_params`` fields hold canonical sorted ``(name, value)`` tuples;
    construction accepts plain dicts and normalises them.  Parameters
    equal to their declared defaults are dropped during normalisation,
    which keeps digests stable when components grow new optional
    parameters later.
    """

    game: str
    policy: str = "maxcost"
    topology: str = "budget"
    dynamics: str = "sequential"
    game_params: ParamsInput = ()
    policy_params: ParamsInput = ()
    topology_params: ParamsInput = ()
    dynamics_params: ParamsInput = ()
    metrics: Tuple[str, ...] = DEFAULT_METRICS
    label: str = ""
    version: int = SCENARIO_VERSION

    _AXES = (("game", "game_params"), ("policy", "policy_params"),
             ("dynamics", "dynamics_params"), ("topology", "topology_params"))

    def __post_init__(self) -> None:
        if self.version != SCENARIO_VERSION:
            raise ValueError(
                f"unsupported scenario version {self.version!r} "
                f"(this build reads version {SCENARIO_VERSION})"
            )
        if isinstance(self.metrics, str):
            raise ValueError("metrics must be a sequence of names, not a string")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for category, params_field in self._AXES:
            name = getattr(self, category)
            comp = REGISTRY.get(category, name)  # unknown name -> ValueError
            canonical = comp.canonical_params(dict(_as_param_tuple(getattr(self, params_field))))
            object.__setattr__(self, params_field, canonical)
        for m in self.metrics:
            REGISTRY.get("metric", m)

    # -- accessors ---------------------------------------------------------
    def params_for(self, category: str) -> Dict[str, Any]:
        """Explicitly-set parameters of one axis as a plain dict."""
        return dict(getattr(self, f"{category}_params"))

    def component(self, category: str):
        """The registered :class:`~repro.registry.base.Component` of an axis."""
        return REGISTRY.get(category, getattr(self, category))

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """Functional update (re-validates through ``__post_init__``)."""
        return replace(self, **changes)

    # -- JSON --------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Lossless JSON payload (round-trips via :meth:`from_json`)."""
        return {
            "scenario_version": self.version,
            "game": {"name": self.game, "params": self.params_for("game")},
            "policy": {"name": self.policy, "params": self.params_for("policy")},
            "dynamics": {"name": self.dynamics, "params": self.params_for("dynamics")},
            "topology": {"name": self.topology, "params": self.params_for("topology")},
            "metrics": list(self.metrics),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse and validate a payload produced by :meth:`to_json`.

        A ``"backend"`` key, written by builds that had a distance
        backend choice, is accepted and ignored.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"scenario payload must be an object, got {type(payload).__name__}")
        version = payload.get("scenario_version", SCENARIO_VERSION)
        known = {"scenario_version", "game", "policy", "dynamics", "topology",
                 "metrics", "label", "backend"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown scenario field(s): {', '.join(unknown)}")

        def axis(key: str, default: Optional[str] = None) -> Tuple[str, Dict[str, Any]]:
            value = payload.get(key, default)
            if value is None:
                raise ValueError(f"scenario payload is missing {key!r}")
            if isinstance(value, str):
                return value, {}
            if isinstance(value, Mapping):
                extra = sorted(set(value) - {"name", "params"})
                if extra or "name" not in value:
                    raise ValueError(
                        f"{key} must be a name or {{'name', 'params'}} object"
                    )
                return str(value["name"]), dict(value.get("params") or {})
            raise ValueError(f"{key} must be a string or object, got {value!r}")

        game, game_params = axis("game")
        policy, policy_params = axis("policy", "maxcost")
        dynamics, dynamics_params = axis("dynamics", "sequential")
        topology, topology_params = axis("topology", "budget")
        return cls(
            game=game, policy=policy, topology=topology, dynamics=dynamics,
            game_params=game_params, policy_params=policy_params,
            topology_params=topology_params, dynamics_params=dynamics_params,
            metrics=tuple(payload.get("metrics", DEFAULT_METRICS)),
            label=str(payload.get("label", "")),
            version=int(version),
        )

    def json_str(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_str(cls, text: str) -> "ScenarioSpec":
        return cls.from_json(json.loads(text))

    # -- canonical identity -------------------------------------------------
    def canonical(self) -> str:
        """The seed-digest canonical string (see the module docstring).

        Specs inside the figure-grid surface return the frozen
        figure-grid string; everything else returns a
        ``ScenarioSpec/v1:`` sorted-JSON form.  Both exclude ``metrics``.
        """
        frozen = _figure_grid_canonical(self)
        if frozen is not None:
            return frozen
        payload = {
            axis: {"name": getattr(self, axis), "params": self.params_for(axis)}
            for axis, _ in self._AXES
        }
        payload["label"] = self.label
        return f"ScenarioSpec/v{self.version}:" + json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> int:
        """Deterministic 32-bit digest of the canonical form.

        This value feeds ``SeedSequence`` (trial seeds) and the
        campaign store's cell keys; it is pinned by
        ``tests/registry/test_scenario.py::TestPinnedDigests``.
        """
        return zlib.crc32(self.canonical().encode())

    # -- presentation ------------------------------------------------------
    def series_name(self) -> str:
        """Legend label in the paper's plotting style."""
        if self.label:
            return self.label
        bits = []
        topo = self.params_for("topology")
        gp = self.params_for("game")
        if "budget" in topo:
            bits.append(f"k={topo['budget']}")
        if topo.get("m_edges") is not None:
            bits.append(f"m={topo['m_edges']}")
        if gp.get("alpha") is not None:
            bits.append(f"a={gp['alpha']}")
        if self.topology not in ("budget", "random"):
            bits.append(self.topology)
        if self.game not in ("asg", "gbg"):
            bits.append(self.game)
        if self.dynamics != "sequential":
            bits.append(self.dynamics)
        bits.append(policy_series_label(self.policy))
        return ", ".join(bits)


def _figure_grid_canonical(spec: ScenarioSpec) -> Optional[str]:
    """The frozen ``ExperimentConfig(...)`` seed string of ``spec``, or
    ``None`` when the spec lies outside the figure-grid surface.

    The string is byte for byte the dataclass ``repr`` of the project's
    first cell type (field order ``game, mode, policy, topology,
    budget, m_edges, alpha, label``).  It is a seed format: do not
    change it.
    """
    if spec.dynamics != "sequential" or spec.dynamics_params:
        return None
    if spec.policy not in ("maxcost", "random") or spec.policy_params:
        return None
    topo = spec.params_for("topology")
    if spec.topology == "budget":
        if set(topo) != {"budget"}:
            return None
        budget, m_edges = int(topo["budget"]), None
    elif spec.topology == "random":
        if not set(topo) <= {"m_edges"}:
            return None
        budget, m_edges = None, topo.get("m_edges")
    elif spec.topology in ("rl", "dl") and not topo:
        budget, m_edges = None, None
    else:
        return None
    gp = spec.params_for("game")
    if not set(gp) <= {"mode", "alpha"} or "mode" not in gp:
        return None
    fields = (("game", spec.game), ("mode", gp["mode"]), ("policy", spec.policy),
              ("topology", spec.topology), ("budget", budget),
              ("m_edges", m_edges), ("alpha", gp.get("alpha")),
              ("label", spec.label))
    return "ExperimentConfig(" + ", ".join(f"{k}={v!r}" for k, v in fields) + ")"
