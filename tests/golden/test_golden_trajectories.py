"""Golden-trajectory regression harness.

Every committed fixture is replayed three ways — through the per-state
memo, through the memo with the bitkernel forced, and through the
no-memo reference backend of :mod:`tests.helpers` — and the full trace (movers, moves, operation kinds, *exact* float costs, cycle
bookkeeping, final state) must be bit-identical to the stored one.  A
failure here means the dynamics changed: either a genuine regression,
or an intended semantic change that must be accompanied by a reviewed
fixture regeneration (``scripts/regen_golden.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.core.network import Network
from repro.graphs import bitkernel

from tests.golden.cases import (
    CASES,
    FIXTURE_DIR,
    GoldenCase,
    expected_payload,
    run_case,
)
from tests.helpers import NoMemoBackend

LEGS = ["memo", "bitkernel", "no-memo"]


def _fixture_paths():
    return sorted(FIXTURE_DIR.glob("*.json"))


def _load(path):
    payload = json.loads(path.read_text())
    case = GoldenCase(**payload["case"])
    initial = Network.from_dict(payload["initial"])
    return case, initial, payload["expect"]


def _run(case, initial, leg):
    with bitkernel.forced(leg == "bitkernel"):
        return run_case(case, initial,
                        backend=NoMemoBackend() if leg == "no-memo" else None)


def test_fixture_set_matches_case_list():
    """Every declared case has a committed fixture and vice versa —
    a case added without running the regen script fails loudly."""
    on_disk = {p.stem for p in _fixture_paths()}
    declared = {c.name for c in CASES}
    assert on_disk == declared


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("path", _fixture_paths(), ids=lambda p: p.stem)
def test_golden_trajectory(path, leg):
    """The run reproduces the stored trace exactly on this leg."""
    case, initial, expect = _load(path)
    result = _run(case, initial, leg)
    # normalise through json so float/int comparison semantics are the
    # fixture file's own (shortest-repr floats round-trip exactly)
    produced = json.loads(json.dumps(expected_payload(result)))
    assert produced == expect


def test_fixture_initial_matches_generator_recipe():
    """The embedded initial networks still equal their generator
    recipes — documents that no generator drift has happened (if one
    ever does intentionally, regen the fixtures and this pins the new
    state)."""
    from tests.golden.cases import generate_initial

    for path in _fixture_paths():
        case, initial, _ = _load(path)
        regenerated = generate_initial(case)
        assert initial.state_key() == regenerated.state_key(), case.name
