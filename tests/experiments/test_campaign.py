"""Campaign store semantics: resume, fleet drains, kill-safety, aggregates.

The contract under test (see :mod:`repro.experiments.campaign`):

* an interrupted campaign resumes with **zero recomputed trials** and
  its final aggregate is **byte-identical** to an uninterrupted run;
* a parallel run drains through the fabric's worker fleet into the
  same aggregate as a serial one;
* a torn trailing record (kill mid-append) is ignored without losing
  the completed prefix;
* a store never silently mixes two different campaigns.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.campaign import (
    CampaignMismatch,
    CampaignStore,
    aggregate_payload,
    campaign_status,
    cell_key,
    run_campaign,
)
from repro.experiments.config import FigureSpec
from repro.registry import ScenarioSpec


def tiny_spec() -> FigureSpec:
    """A two-series, two-n grid small enough for dozens of runs."""
    return FigureSpec(
        figure="figT",
        title="campaign test grid",
        configs=(
            ScenarioSpec(game="asg", policy="maxcost", game_params={"mode": "sum"},
                         topology_params={"budget": 1}),
            ScenarioSpec(game="gbg", policy="random", topology="random",
                         game_params={"mode": "sum", "alpha": "n/4"},
                         topology_params={"m_edges": "2n"}),
        ),
        n_values=(8, 10),
        trials=6,
    )


def payload_bytes(run) -> bytes:
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def test_uninterrupted_campaign_completes_and_aggregates(tmp_path):
    run = run_campaign(tiny_spec(), tmp_path / "c", seed=1, n_jobs=1)
    assert run.complete
    assert run.new_trials == run.total == 4 * 6
    assert run.skipped_existing == 0
    agg = aggregate_payload(run.result)
    assert all(cell["trials"] == 6 for series in agg.values() for cell in series.values())


def test_resume_recomputes_nothing_and_aggregate_is_byte_identical(tmp_path):
    spec = tiny_spec()
    reference = run_campaign(spec, tmp_path / "full", seed=1, n_jobs=1)

    # interrupted run: three slices, killed after 5, then 9 more, then the rest
    root = tmp_path / "sliced"
    first = run_campaign(spec, root, seed=1, n_jobs=1, max_new_trials=5)
    assert (first.new_trials, first.skipped_existing) == (5, 0)
    second = run_campaign(spec, root, seed=1, n_jobs=1, max_new_trials=9)
    assert (second.new_trials, second.skipped_existing) == (9, 5)
    third = run_campaign(spec, root, seed=1, n_jobs=1)
    assert third.new_trials == reference.total - 14
    assert third.skipped_existing == 14
    assert third.complete

    # a fourth invocation recomputes zero trials
    fourth = run_campaign(spec, root, seed=1, n_jobs=1)
    assert fourth.new_trials == 0
    assert fourth.skipped_existing == fourth.total

    assert payload_bytes(third) == payload_bytes(reference)
    assert payload_bytes(fourth) == payload_bytes(reference)


def test_parallel_run_drains_through_the_fleet(tmp_path):
    spec = tiny_spec()
    reference = run_campaign(spec, tmp_path / "serial", seed=2, n_jobs=1)

    root = tmp_path / "fleet"
    run = run_campaign(spec, root, seed=2, n_jobs=2)
    assert run.complete
    assert (run.new_trials, run.skipped_existing) == (reference.total, 0)
    assert payload_bytes(run) == payload_bytes(reference)
    # the fleet's layout: one record file per worker plus the queue
    assert (root / "fabric" / "done").is_dir()
    names = [p.name for p in CampaignStore(root).record_files()]
    assert names and all(n.startswith("trials-w") for n in names)
    assert campaign_status(root)["complete"]


def test_parallel_capped_slices_resume_to_the_serial_aggregate(tmp_path):
    """A slice the cap cuts out of a block is a unit of its own, so the
    next parallel plan still offers the block's tail."""
    spec = tiny_spec()
    reference = run_campaign(spec, tmp_path / "serial", seed=3, n_jobs=1)

    root = tmp_path / "fleet"
    first = run_campaign(spec, root, seed=3, n_jobs=2, max_new_trials=5)
    assert (first.new_trials, first.remaining) == (5, reference.total - 5)
    rest = run_campaign(spec, root, seed=3, n_jobs=2)
    assert (rest.new_trials, rest.skipped_existing) == (reference.total - 5, 5)
    assert rest.complete
    assert payload_bytes(rest) == payload_bytes(reference)


def test_parallel_resume_retries_a_parked_unit(tmp_path):
    """A unit an earlier drain parked (trial error, or a worker killed
    too often) is retried by the next run, as a serial resume would."""
    from repro.experiments.fabric import CampaignSource, WorkQueue

    spec = tiny_spec()
    reference = run_campaign(spec, tmp_path / "serial", seed=2, n_jobs=1)

    root = tmp_path / "fleet"
    run_campaign(spec, root, seed=2, n_jobs=2, max_new_trials=0)
    source = CampaignSource(spec, seed=2)
    unit = source.plan(source.store(root), 0)[0]
    queue = WorkQueue(root)
    queue.ensure_dirs()
    (queue.failed / f"{unit['id']}.json").write_text(
        json.dumps({**unit, "error": "poison: worker killed 3 times"}))

    run = run_campaign(spec, root, seed=2, n_jobs=2)
    assert run.complete
    assert (run.new_trials, run.skipped_existing) == (reference.total, 0)
    assert payload_bytes(run) == payload_bytes(reference)
    assert not queue.failed_units()


def test_parallel_resume_reruns_a_lost_row(tmp_path):
    """A trial whose row the store lost (a CRC-bad line is skipped on
    read) runs again although its unit sits in the queue's done/."""
    spec = tiny_spec()
    reference = run_campaign(spec, tmp_path / "serial", seed=2, n_jobs=1)

    root = tmp_path / "fleet"
    run_campaign(spec, root, seed=2, n_jobs=2)
    store = CampaignStore(root)
    path = store.record_files()[0]
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[0])
    row["steps"] += 1  # the stored checksum no longer matches
    path.write_text(json.dumps(row, sort_keys=True) + "\n" + "".join(lines[1:]))
    assert campaign_status(root)["remaining"] == 1

    run = run_campaign(spec, root, seed=2, n_jobs=2)
    assert run.complete
    assert (run.new_trials, run.skipped_existing) == (1, reference.total - 1)
    assert payload_bytes(run) == payload_bytes(reference)


def test_parallel_failed_unit_raises_its_error(tmp_path):
    from repro.experiments.fabric import FabricError

    # a budget-4 network needs n > 8: every trial of this cell raises
    infeasible = FigureSpec(
        figure="figX", title="infeasible grid",
        configs=(ScenarioSpec(game="asg", game_params={"mode": "sum"},
                              topology_params={"budget": 4}),),
        n_values=(8,), trials=2,
    )
    with pytest.raises(FabricError, match="need n > 2\\*budget"):
        run_campaign(infeasible, tmp_path / "c", n_jobs=2)


def test_torn_trailing_line_is_ignored_and_resume_refills(tmp_path):
    spec = tiny_spec()
    root = tmp_path / "torn"
    run_campaign(spec, root, seed=3, n_jobs=1, max_new_trials=7)
    store = CampaignStore(root)
    [shard_file] = store.record_files()

    # simulate a kill mid-append: tear the last record in half
    text = shard_file.read_text()
    lines = text.splitlines(keepends=True)
    shard_file.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    assert len(store.load_records()) == 6  # torn record dropped, prefix kept

    reference = run_campaign(spec, tmp_path / "full", seed=3, n_jobs=1)
    resumed = run_campaign(spec, root, seed=3, n_jobs=1)
    assert resumed.complete
    assert resumed.skipped_existing == 6  # only the 6 intact records survived
    assert payload_bytes(resumed) == payload_bytes(reference)


def test_status_reports_progress(tmp_path):
    spec = tiny_spec()
    root = tmp_path / "st"
    run_campaign(spec, root, seed=4, n_jobs=1, max_new_trials=5)
    status = campaign_status(root)
    assert status["total"] == 24 and status["done"] == 5 and not status["complete"]
    run_campaign(spec, root, seed=4, n_jobs=1)
    status = campaign_status(root)
    assert status["complete"] and status["remaining"] == 0
    assert all(c["done"] == c["trials"] for c in status["cells"].values())


def test_status_without_manifest_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        campaign_status(tmp_path / "nope")


def test_mismatched_campaign_is_refused(tmp_path):
    spec = tiny_spec()
    root = tmp_path / "c"
    run_campaign(spec, root, seed=5, n_jobs=1, max_new_trials=2)
    with pytest.raises(CampaignMismatch):
        run_campaign(spec, root, seed=6, n_jobs=1)  # different seed
    with pytest.raises(CampaignMismatch):
        run_campaign(spec, root, seed=5, trials=9, n_jobs=1)  # different grid


def test_fresh_run_refuses_existing_records_without_resume(tmp_path):
    spec = tiny_spec()
    root = tmp_path / "c"
    run_campaign(spec, root, seed=7, n_jobs=1, max_new_trials=2, resume=False)
    with pytest.raises(CampaignMismatch):
        run_campaign(spec, root, seed=7, n_jobs=1, resume=False)
    # with resume it continues fine
    assert run_campaign(spec, root, seed=7, n_jobs=1, resume=True).complete


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_counts_below_one_are_rejected(tmp_path, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_campaign(tiny_spec(), tmp_path / "c", trials=trials, n_jobs=1)
    assert not (tmp_path / "c").exists()  # refused before any write


def test_negative_trial_cap_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="max_new_trials"):
        run_campaign(tiny_spec(), tmp_path / "c", n_jobs=1, max_new_trials=-3)


def test_cell_key_ignores_legacy_backend_key():
    """A spec payload written with the retired ``"backend"`` key loads
    to the same cell, so stores written before keep resuming."""
    spec = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                        topology_params={"budget": 1})
    legacy = ScenarioSpec.from_json({**spec.to_json(), "backend": "dense"})
    assert legacy == spec
    assert cell_key(legacy, 10) == cell_key(spec, 10)


def scenario_spec():
    """A grid cell outside the figure grids' surface: simultaneous-round
    GBG, noisy best response, tree topology, social-cost reporting."""
    return ScenarioSpec(
        game="gbg", policy="noisy", dynamics="simultaneous", topology="tree",
        game_params={"mode": "sum", "alpha": "n/4"},
        policy_params={"epsilon": 0.2},
        metrics=("steps", "status", "social_cost", "rounds"),
        label="noisy simultaneous gbg",
    )


def scenario_grid() -> FigureSpec:
    return FigureSpec(
        figure="figS", title="scenario grid",
        configs=(scenario_spec(),), n_values=(8,), trials=4,
    )


def test_pre_redesign_store_resumes_without_recomputation(tmp_path):
    """A campaign store written by the pre-registry code — manifest with
    repr-based cfg strings, rows without a metrics key — must validate
    and resume with its trials skipped, not recomputed.  The store here
    is byte-crafted to the old format, not produced by current code."""
    import zlib

    cfg = tiny_spec().configs[0]
    n = 8
    # the old cell key: crc32 of the config repr (literal algorithm)
    old_repr = ("ExperimentConfig(game='asg', mode='sum', policy='maxcost', "
                "topology='budget', budget=1, m_edges=None, alpha=None, label='')")
    key = f"{zlib.crc32(old_repr.encode()):08x}-n{n}"
    root = tmp_path / "old-store"
    root.mkdir()
    manifest = {
        "version": 1,
        "figure": "figT",
        "title": "campaign test grid",
        "seed": 1,
        "trials": 3,
        "n_values": [n],
        "max_steps_factor": 50,
        "cells": [
            {"key": key, "series": "k=1, max cost", "n": n, "cfg": old_repr}
        ],
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    old_rows = [
        {"cell": key, "trial": 0, "steps": 5, "status": "converged"},
        {"cell": key, "trial": 2, "steps": 7, "status": "converged"},
    ]
    (root / "trials-0of1.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in old_rows)
    )

    spec = FigureSpec(figure="figT", title="campaign test grid",
                      configs=(cfg,), n_values=(n,), trials=3)
    run = run_campaign(spec, root, seed=1, n_jobs=1)
    assert run.skipped_existing == 2  # the pre-redesign rows survived
    assert run.new_trials == 1       # only the missing trial ran
    assert run.complete
    stats = run.result.series[cfg.series_name()][n]
    # the fabricated legacy outcomes flow into the aggregate untouched
    assert {5, 7} <= set(stats.steps)


def test_scenario_cells_campaign_with_metric_payload(tmp_path):
    from repro.experiments.campaign import metric_payloads

    run = run_campaign(scenario_grid(), tmp_path / "c", seed=1, n_jobs=1)
    assert run.complete and run.total == 4
    store = CampaignStore(tmp_path / "c")
    records = store.load_records()
    payload = metric_payloads(records)
    [cell] = payload
    assert cell == cell_key(scenario_spec(), 8)
    assert set(payload[cell]) == {0, 1, 2, 3}
    for metrics in payload[cell].values():
        assert set(metrics) == {"social_cost", "rounds"}
        assert metrics["social_cost"] > 0

    # resume recomputes nothing and keeps the payloads
    again = run_campaign(scenario_grid(), tmp_path / "c", seed=1, n_jobs=1)
    assert again.new_trials == 0 and again.skipped_existing == 4


def test_legacy_rows_have_no_metrics_key(tmp_path):
    """Default-metric scenarios write rows byte-identical in shape to
    the pre-redesign store format."""
    run_campaign(tiny_spec(), tmp_path / "c", seed=1, n_jobs=1,
                 max_new_trials=3)
    store = CampaignStore(tmp_path / "c")
    for rec in store.load_records():
        assert set(rec) == {"cell", "trial", "steps", "status"}


def test_campaign_matches_run_cell_statistics(tmp_path):
    """The store pipeline produces exactly the statistics run_cell
    computes directly — same trials, same seeds, same outcomes."""
    from repro.experiments.runner import run_cell

    spec = tiny_spec()
    run = run_campaign(spec, tmp_path / "c", seed=8, n_jobs=1)
    for cfg in spec.configs:
        for n in spec.n_values:
            direct = run_cell(cfg, n, trials=spec.trials, seed=8, n_jobs=1)
            stored = run.result.series[cfg.series_name()][n]
            assert stored.steps == direct.steps
            assert stored.non_converged == direct.non_converged
