"""JSON Schema for :class:`~repro.registry.scenario.ScenarioSpec`.

Generated straight from the registry's :class:`~repro.registry.base
.Param` metadata, so the schema can never drift from what
``ScenarioSpec.from_json`` actually accepts: every registered
component's name becomes an enum entry, every declared parameter a
typed property (choices → ``enum``, optionals → nullable), every axis
the ``name-string | {name, params}`` shape ``from_json`` parses.

Ships with :func:`validate_payload`, a minimal stdlib validator for
exactly the subset of keywords the generator emits (``type``, ``enum``,
``const``, ``properties``, ``required``, ``additionalProperties``,
``items``, ``anyOf``) — service clients without a jsonschema package
can still pre-validate specs, and the round-trip test pins
generator and validator against the registry itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .base import REGISTRY, Component, Param
from .scenario import DEFAULT_METRICS, SCENARIO_VERSION

__all__ = [
    "AXES",
    "axis_schema",
    "component_schema",
    "param_schema",
    "scenario_json_schema",
    "validate_payload",
]

#: the scenario axes that appear in a payload, in presentation order
AXES = ("game", "policy", "dynamics", "topology")

_KIND_TYPES = {
    "int": "integer",
    "float": "number",
    "str": "string",
    "bool": "boolean",
}


def param_schema(param: Param) -> Dict[str, Any]:
    """Schema of one declared parameter value."""
    schema: Dict[str, Any] = {}
    if param.choices is not None:
        values: List[Any] = list(param.choices)
        if not param.required:
            values.append(None)
        schema["enum"] = values
    else:
        kinds = [_KIND_TYPES[param.kind]]
        if param.kind == "float":
            kinds.append("integer")  # JSON has no float literal mandate
        if param.kind in ("int", "float", "str"):
            # the CLI round-trips every value through strings and Param
            # coerces them back, so strings are always on the wire menu
            if "string" not in kinds:
                kinds.append("string")
        if not param.required:
            kinds.append("null")
        schema["type"] = kinds if len(kinds) > 1 else kinds[0]
    if param.doc:
        schema["description"] = param.doc
    if not param.required:
        schema["default"] = param.default
    return schema


def component_schema(comp: Component) -> Dict[str, Any]:
    """Schema of one ``{"name": ..., "params": {...}}`` axis object."""
    properties: Dict[str, Any] = {
        p.name: param_schema(p) for p in comp.params
    }
    required = sorted(p.name for p in comp.params if p.required)
    params: Dict[str, Any] = {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
    }
    if required:
        params["required"] = required
    schema: Dict[str, Any] = {
        "type": "object",
        "properties": {"name": {"const": comp.name}, "params": params},
        "required": ["name"],
        "additionalProperties": False,
    }
    if comp.doc:
        schema["description"] = comp.doc
    return schema


def axis_schema(category: str) -> Dict[str, Any]:
    """One axis accepts a bare component name or a name+params object."""
    names = REGISTRY.names(category)
    return {
        "anyOf": [
            {"enum": names},
            *(component_schema(REGISTRY.get(category, name)) for name in names),
        ]
    }


def scenario_json_schema() -> Dict[str, Any]:
    """The full schema of a ``ScenarioSpec.to_json()`` payload."""
    metric_names = REGISTRY.names("metric")
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "ScenarioSpec",
        "description": (
            "A registry-validated scenario: one component per axis plus "
            "parameters, as accepted by ScenarioSpec.from_json and by "
            "POST /jobs of repro.service."
        ),
        "type": "object",
        "properties": {
            "scenario_version": {"const": SCENARIO_VERSION},
            **{axis: axis_schema(axis) for axis in AXES},
            "metrics": {
                "type": "array",
                "items": {"enum": metric_names},
                "default": list(DEFAULT_METRICS),
            },
            "label": {"type": "string", "default": ""},
        },
        "required": ["game"],
        "additionalProperties": False,
    }


# --------------------------------------------------------------------------
# Minimal validator for the emitted subset
# --------------------------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_payload(
    value: Any, schema: Optional[Dict[str, Any]] = None, path: str = "$"
) -> List[str]:
    """Validate ``value`` against ``schema`` (default: the scenario
    schema); returns a list of ``"path: problem"`` strings, empty when
    the payload conforms.  Supports exactly the keywords the generator
    emits — not a general JSON Schema engine.
    """
    if schema is None:
        schema = scenario_json_schema()
    errors: List[str] = []

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(
            f"{path}: {value!r} is not one of "
            f"{', '.join(map(repr, schema['enum']))}")
        return errors

    if "anyOf" in schema:
        branches = schema["anyOf"]
        if isinstance(value, dict) and "name" in value:
            # discriminator: a named axis object is judged against the
            # component it names, not against every sibling's errors
            keyed = [
                b for b in branches
                if b.get("properties", {}).get("name", {}).get("const")
                == value["name"]
            ]
            if keyed:
                branches = keyed
        candidates = [validate_payload(value, branch, path)
                      for branch in branches]
        if not any(not errs for errs in candidates):
            # report the branch that got furthest (fewest complaints)
            best = min(candidates, key=len)
            errors.append(f"{path}: no matching alternative")
            errors.extend(best)
        return errors

    declared = schema.get("type")
    if declared is not None:
        allowed = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in allowed):
            errors.append(
                f"{path}: expected {' or '.join(allowed)}, "
                f"got {type(value).__name__}")
            return errors

    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        if schema.get("additionalProperties") is False:
            for name in sorted(set(value) - set(properties)):
                errors.append(f"{path}: unknown property {name!r}")
        for name, sub in properties.items():
            if name in value:
                errors.extend(validate_payload(value[name], sub,
                                               f"{path}.{name}"))
    elif isinstance(value, list) and "items" in schema:
        for idx, item in enumerate(value):
            errors.extend(validate_payload(item, schema["items"],
                                           f"{path}[{idx}]"))
    return errors
