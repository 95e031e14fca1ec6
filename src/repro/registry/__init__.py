"""Registry-driven scenario API.

Every axis of the empirical study — game, move policy, dynamics kind,
initial topology, per-trial metric — is a named, schema-typed component
in :data:`REGISTRY`; a :class:`ScenarioSpec` is the frozen, versioned,
JSON round-trippable description of one combination.  See
``docs/architecture.md`` ("The registry / ScenarioSpec layer") for the
design and a worked add-your-own-component example.
"""

from .base import CATEGORIES, REGISTRY, Component, Param, Registry
from .builtin import (  # noqa: F401  (importing registers the built-ins)
    DynamicsKind,
    TrialContext,
    TrialOutcome,
    resolve_alpha_spec,
    resolve_m_spec,
)
from .scenario import (
    SCENARIO_VERSION,
    ScenarioSpec,
    policy_series_label,
)

__all__ = [
    "REGISTRY",
    "Registry",
    "Component",
    "Param",
    "CATEGORIES",
    "DynamicsKind",
    "TrialOutcome",
    "TrialContext",
    "resolve_alpha_spec",
    "resolve_m_spec",
    "SCENARIO_VERSION",
    "ScenarioSpec",
    "policy_series_label",
]
