"""Byte pins of the serial campaign store.

A serial ``run_campaign`` (``n_jobs=1``) writes ``manifest.json`` and
one record file, ``trials-0of1.jsonl``.  Their sha256 digests are
pinned for a Figure 7 slice and for a scenario grid whose rows carry
metric payloads, both for one straight run and for ``max_new_trials``
slices of 3, 4 and then the rest, so any change to the trial order, the
seeding or the row encoding fails here.  The literals were recorded
from the stored bytes — do NOT regenerate them from code.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.asg_budget import figure7_spec
from repro.experiments.campaign import CampaignStore, run_campaign
from repro.experiments.config import FigureSpec
from repro.registry import ScenarioSpec


def fig7_grid() -> FigureSpec:
    return figure7_spec(n_values=(10, 20), trials=5)


def metrics_grid() -> FigureSpec:
    """The kind of grid ``repro campaign --spec FILE`` runs: registry
    scenarios whose rows carry a ``metrics`` payload."""
    return FigureSpec(
        figure="figM",
        title="metric-payload grid",
        configs=(
            ScenarioSpec(game="gbg", policy="noisy", dynamics="simultaneous",
                         topology="tree",
                         game_params={"mode": "sum", "alpha": "n/4"},
                         policy_params={"epsilon": 0.2},
                         metrics=("steps", "status", "social_cost", "rounds")),
            ScenarioSpec(game="asg", policy="maxcost",
                         game_params={"mode": "sum"},
                         topology_params={"budget": 1},
                         metrics=("steps", "status", "diameter")),
        ),
        n_values=(8, 10),
        trials=4,
    )


#: grid -> (seed, manifest.json sha256, trials-0of1.jsonl sha256)
PINNED = {
    fig7_grid: (
        1,
        "f83c7642f24b574da25d8f2fd10aa18c13be5ff6c3b6a411c5d08cd573b05d32",
        "53a51bf7f30fd948f9fcd6e4fbd4d9b3b035142b40074c94ef0006f6b2e9baf8",
    ),
    metrics_grid: (
        2,
        "5a035d34772af962fd7273f1823b68dc8688ed38700a0b97a089bb26bf29855d",
        "e38a03c47888ddfe4b3bc74e2bf427240fe3c51c614d0ba13000107c0eb6055d",
    ),
}


def digests(root) -> tuple:
    return tuple(
        hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in (CampaignStore.MANIFEST, "trials-0of1.jsonl")
    )


@pytest.mark.parametrize("grid", list(PINNED), ids=lambda fn: fn.__name__)
def test_serial_store_bytes_pinned(grid, tmp_path):
    seed, manifest, records = PINNED[grid]
    run = run_campaign(grid(), tmp_path, seed=seed, n_jobs=1)
    assert run.complete
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        CampaignStore.MANIFEST, "trials-0of1.jsonl"]
    assert digests(tmp_path) == (manifest, records)


@pytest.mark.parametrize("grid", list(PINNED), ids=lambda fn: fn.__name__)
def test_capped_slices_write_the_same_bytes(grid, tmp_path):
    seed, manifest, records = PINNED[grid]
    first = run_campaign(grid(), tmp_path, seed=seed, n_jobs=1,
                         max_new_trials=3)
    second = run_campaign(grid(), tmp_path, seed=seed, n_jobs=1,
                          max_new_trials=4)
    rest = run_campaign(grid(), tmp_path, seed=seed, n_jobs=1)
    assert (first.new_trials, second.new_trials) == (3, 4)
    assert (second.skipped_existing, rest.skipped_existing) == (3, 7)
    assert rest.complete and rest.new_trials == rest.total - 7
    assert digests(tmp_path) == (manifest, records)
