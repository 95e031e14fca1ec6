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
* **seed-compatible with the legacy surface** — see below.

Seed-digest compatibility
-------------------------
Trial seeds derive from ``SeedSequence(campaign_seed, digest(spec), n)``
(see :func:`repro.experiments.runner.trial_jobs`), and the pre-registry
code computed ``digest`` as ``crc32(repr(ExperimentConfig(...)))``.
Every spec that is expressible in the legacy ``ExperimentConfig``
surface therefore *canonicalizes to exactly that legacy repr string*
(:meth:`canonical`), so its digest — and with it every stored seed,
golden fixture, campaign cell key and resumable store — is unchanged
byte for byte.  Scenarios outside the legacy surface canonicalize to a
versioned sorted-JSON form instead.

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
    "as_scenario",
    "policy_series_label",
]

#: current spec-layout version, stamped into every JSON payload.
SCENARIO_VERSION = 1

Params = Tuple[Tuple[str, Any], ...]
ParamsInput = Union[None, Mapping[str, Any], Params]

#: default metric set — mirrors the legacy ``(steps, status)`` tuple.
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

    # -- legacy bridge -----------------------------------------------------
    def as_experiment_config(self):
        """The equivalent legacy ``ExperimentConfig``, or ``None``.

        A spec maps back iff every axis lies inside the legacy surface:
        default sequential dynamics; ``maxcost``/``random`` policy with
        default parameters; a ``budget``/``random``/``rl``/``dl``
        topology with legacy-shaped parameters; and game parameters
        limited to ``mode``/``alpha``.  Metrics never block the mapping
        (they are outside the canonical form).
        """
        from ..experiments.config import ExperimentConfig  # local: avoids cycle

        if self.dynamics != "sequential" or self.dynamics_params:
            return None
        if self.policy not in ("maxcost", "random") or self.policy_params:
            return None
        if self.topology not in ("budget", "random", "rl", "dl"):
            return None
        topo = self.params_for("topology")
        if self.topology == "budget":
            if set(topo) != {"budget"}:
                return None
            budget, m_edges = int(topo["budget"]), None
        elif self.topology == "random":
            if not set(topo) <= {"m_edges"}:
                return None
            budget, m_edges = None, topo.get("m_edges")
        else:
            if topo:
                return None
            budget, m_edges = None, None
        gp = self.params_for("game")
        if not set(gp) <= {"mode", "alpha"} or "mode" not in gp:
            return None
        return ExperimentConfig(
            game=self.game, mode=gp["mode"], policy=self.policy,
            topology=self.topology, budget=budget, m_edges=m_edges,
            alpha=gp.get("alpha"), label=self.label,
        )

    # -- canonical identity -------------------------------------------------
    def canonical(self) -> str:
        """The seed-digest canonical string (see the module docstring).

        Legacy-expressible specs return the exact pre-registry
        ``repr(ExperimentConfig(...))`` string; everything else returns
        a ``ScenarioSpec/v1:`` sorted-JSON form that excludes
        ``metrics``.
        """
        legacy = self.as_experiment_config()
        if legacy is not None:
            return repr(legacy)
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


def as_scenario(cfg) -> ScenarioSpec:
    """Coerce a legacy ``ExperimentConfig`` (or a spec) to a
    :class:`ScenarioSpec` — the runner's single entry point."""
    if isinstance(cfg, ScenarioSpec):
        return cfg
    to_scenario = getattr(cfg, "to_scenario", None)
    if to_scenario is not None:
        return to_scenario()
    raise TypeError(
        f"expected a ScenarioSpec or ExperimentConfig, got {type(cfg).__name__}"
    )
