"""Fabric semantics: leases, reassignment, kill-safety, compaction.

The contract under test (see :mod:`repro.experiments.fabric` and
:mod:`repro.experiments.columnar`):

* exactly one worker wins a claim race; double completion is harmless;
* an expired lease is reassigned with bounded retries, then parked as
  failed — and a ``kill -9``'d worker's units land with another worker
  so the drained aggregate is **byte-identical** to a serial run;
* compaction preserves the record stream byte-for-byte through
  aggregation, answers status without reading JSONL, survives pruning
  of the JSONL files, and goes stale the moment a record file grows.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    aggregate_records,
    campaign_status,
    run_campaign,
    _plan_cells,
)
from repro.experiments.columnar import (
    ColumnarStore,
    _decode_column,
    UnsupportedColumnarFormat,
    _encode_column,
    compact_store,
    iter_store_records,
)
from repro.experiments.config import FigureSpec
from repro.experiments.fabric import (
    CampaignSource,
    Coordinator,
    ExplorationSource,
    FabricError,
    FabricSource,
    Lease,
    WorkQueue,
    _HeartbeatThread,
    drain_campaign,
    run_rounds,
    worker_main,
)
from repro.experiments import fabric
from repro.registry import ScenarioSpec


def tiny_spec() -> FigureSpec:
    """A two-series grid small enough for dozens of drains."""
    return FigureSpec(
        figure="figT",
        title="fabric test grid",
        configs=(
            ScenarioSpec(game="asg", policy="maxcost", game_params={"mode": "sum"},
                         topology_params={"budget": 1}),
            ScenarioSpec(game="asg", policy="random", game_params={"mode": "sum"},
                         topology_params={"budget": 2}),
        ),
        n_values=(8,),
        trials=6,
    )


def serial_payload(root, spec, **kwargs) -> bytes:
    run = run_campaign(spec, root, n_jobs=1, **kwargs)
    assert run.complete
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def result_payload(result) -> bytes:
    return json.dumps(aggregate_payload(result), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# queue semantics


class TestWorkQueue:
    def units(self, n=3):
        return [{"id": f"u{i}", "payload": i} for i in range(n)]

    def test_initialize_is_idempotent(self, tmp_path):
        q = WorkQueue(tmp_path)
        assert q.initialize(self.units()) == 3
        assert q.initialize(self.units()) == 0
        lease = q.claim("w0")
        q.complete(lease)
        # known in done/ and leased/ too, not just pending/
        assert q.initialize(self.units()) == 0
        assert q.counts() == {"pending": 2, "leased": 0, "done": 1, "failed": 0}

    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize(self.units(2))
        a = q.claim("w0")
        b = q.claim("w1")
        assert a.id == "u0" and b.id == "u1"  # sorted order
        assert a.unit["owner"] == "w0"
        assert q.claim("w2") is None
        assert not q.drained()  # leases in flight

    def test_backoff_window_defers_requeued_unit(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        q.fail_lease(lease, "boom", max_retries=3, backoff=30.0)
        # requeued, but not_before is 30s out — not claimable yet
        assert q.counts()["pending"] == 1
        assert q.claim("w1") is None

    def test_retry_exhaustion_parks_unit_as_failed(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        for attempt in range(3):
            lease = q.claim("w0")
            assert lease is not None, f"attempt {attempt} found no unit"
            q.fail_lease(lease, "boom", max_retries=2, backoff=0.0)
        assert q.counts() == {"pending": 0, "leased": 0, "done": 0, "failed": 1}
        [failed] = q.failed_units()
        assert failed["retries"] == 3 and "boom" in failed["error"]
        assert q.drained()

    def test_double_completion_is_harmless(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        first = q.claim("w0")
        # simulate a reassignment racing the original owner: the same
        # unit completed from two leases
        ghost = Lease(dict(first.unit), first.path)
        assert q.complete(first, {"trials": 2}) is True
        assert q.complete(ghost, {"trials": 2}) is False
        assert q.counts()["done"] == 1
        [done] = q.done_units()
        assert done["result"] == {"trials": 2}

    def test_reap_expired_requeues_stale_lease(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        # first sight of the lease starts its TTL clock; it is fresh
        t0 = time.monotonic()
        assert q.reap_expired(ttl=60.0, now=t0) == (0, 0)
        # the beat counter never moves, so one TTL later (of the
        # *reaper's* clock — no sleeping, no mtime games) it expires
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 61.0) == (1, 0)
        again = q.claim("w1")
        assert again is not None and again.id == "u0"
        assert again.unit["retries"] == 1
        assert "w0" in again.unit["error"]  # expiry names the late owner

    def test_reap_expired_honors_retry_budget(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        now = time.monotonic()
        for _ in range(2):
            q.claim("w0")
            q.reap_expired(ttl=60.0, max_retries=1, backoff=0.0, now=now)
            now += 61.0
            q.reap_expired(ttl=60.0, max_retries=1, backoff=0.0, now=now)
        assert q.counts()["failed"] == 1
        assert q.drained()

    def test_heartbeat_keeps_lease_warm(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        t0 = time.monotonic()
        assert q.reap_expired(ttl=60.0, now=t0) == (0, 0)
        # a beat changes the (owner, beat) fingerprint, restarting the
        # TTL clock — the lease survives a reap a full TTL later
        assert q.heartbeat(lease, elapsed=30.0) is True
        assert q.reap_expired(ttl=60.0, now=t0 + 61.0) == (0, 0)
        # ...but silence after that beat expires it one TTL further on
        assert q.reap_expired(ttl=60.0, backoff=0.0,
                              now=t0 + 122.0) == (1, 0)

    def test_clock_skew_cannot_expire_a_healthy_lease(self, tmp_path):
        """The lease file's wall-clock timestamps are irrelevant: only
        content fingerprints against the reaper's monotonic clock
        decide expiry, so hours of mtime skew change nothing."""
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        skewed = time.time() - 7200.0  # mtime two hours in the past
        os.utime(lease.path, (skewed, skewed))
        t0 = time.monotonic()
        assert q.reap_expired(ttl=1.0, now=t0) == (0, 0)
        q.heartbeat(lease)
        os.utime(lease.path, (skewed, skewed))  # re-skew after the beat
        assert q.reap_expired(ttl=1.0, now=t0 + 0.5) == (0, 0)

    def test_unit_timeout_watchdog_reclaims_stuck_unit(self, tmp_path):
        """A unit whose worker heartbeats forever but never finishes is
        reclaimed once its self-reported elapsed time passes the
        watchdog bound — and parks as failed when it is stuck
        everywhere."""
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        t0 = time.monotonic()
        q.heartbeat(lease, elapsed=5.0)
        # beating and under the bound: safe
        assert q.reap_expired(ttl=60.0, now=t0, unit_timeout=10.0) == (0, 0)
        q.heartbeat(lease, elapsed=11.0)
        # still beating, but over the bound: reclaimed despite beats
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 0.1,
                              unit_timeout=10.0, max_retries=1) == (1, 0)
        again = q.claim("w1")
        assert "unit_timeout" in again.unit["error"]
        q.heartbeat(again, elapsed=12.0)
        assert q.reap_expired(ttl=60.0, backoff=0.0, now=t0 + 0.2,
                              unit_timeout=10.0, max_retries=1) == (0, 1)
        [failed] = q.failed_units()
        assert "unit_timeout" in failed["error"]

    def test_release_requeues_without_burning_a_retry(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        q.release(lease, note="released by w0 on drain")
        assert q.counts()["pending"] == 1 and q.counts()["leased"] == 0
        again = q.claim("w1")  # immediately claimable: no backoff window
        assert again is not None and again.unit.get("retries", 0) == 0
        assert again.unit["owner"] == "w1"

    def test_poison_unit_parks_with_diagnosis(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        q.claim("w0.0")
        assert q.fail_dead_owner("w0.0", max_crashes=1,
                                 exitcode=-9) == (1, 0)
        lease = q.claim("w0.1")
        assert lease.unit["crashes"] == 1
        assert lease.unit.get("retries", 0) == 0  # crashes are not retries
        assert q.fail_dead_owner("w0.1", max_crashes=1,
                                 exitcode=-11) == (0, 1)
        [failed] = q.failed_units()
        assert failed["diagnosis"] == "poison" and failed["crashes"] == 2
        diagnosis = json.loads((q.failed / "u0.diagnosis").read_text())
        assert [c["worker"] for c in diagnosis["crashed_workers"]] == \
            ["w0.0", "w0.1"]
        assert diagnosis["crashed_workers"][1]["exitcode"] == -11
        assert q.drained()  # the sidecar does not read as a queue unit

    def test_fail_dead_owner_leaves_other_leases_alone(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}, {"id": "u1"}])
        q.claim("w0")
        q.claim("w1")
        assert q.fail_dead_owner("w0", exitcode=-9) == (1, 0)
        assert q.counts() == {"pending": 1, "leased": 1, "done": 0,
                              "failed": 0}

    def test_release_orphans_frees_every_lease_without_a_crash(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}, {"id": "u1"}, {"id": "u2"}])
        q.claim("w0")
        # killed between the claim's rename and its owner stamp: the
        # lease carries no owner that fail_dead_owner could match
        q.fs.rename(q.pending / "u1.json", q.leased / "u1.json")
        done = q.claim("w0")
        q._write(q.done / "u2.json", done.unit)  # killed mid-complete
        assert q.release_orphans("released on start") == 2
        assert q.counts() == {"pending": 2, "leased": 0, "done": 1,
                              "failed": 0}
        for unit_id in ("u0", "u1"):
            unit = WorkQueue._read(q.pending / f"{unit_id}.json")
            assert unit["error"] == "released on start"
            assert "crashes" not in unit and unit.get("retries", 0) == 0


# ---------------------------------------------------------------------------
# campaign drain


class TestCampaignDrain:
    def test_drain_matches_serial_byte_for_byte(self, tmp_path):
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=3)
        report = drain_campaign(
            spec, tmp_path / "fab", seed=3, workers=3,
            lease_ttl=10.0, unit_trials=2,
        )
        assert report.complete and report.units_failed == 0
        # 2 cells x 6 trials / 2-trial units
        assert report.units_done == 6
        assert result_payload(report.result) == serial

    def test_drain_resumes_partial_store(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        partial = run_campaign(spec, root, n_jobs=1, max_new_trials=5)
        assert not partial.complete
        report = drain_campaign(spec, root, workers=2, lease_ttl=10.0,
                                unit_trials=3)
        assert report.complete
        assert result_payload(report.result) == serial_payload(
            tmp_path / "serial", spec)

    def test_drain_on_complete_store_plans_nothing(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        serial = serial_payload(root, spec)
        report = drain_campaign(spec, root, workers=2)
        assert report.complete and report.rounds == 0
        assert report.units_done == 0
        assert result_payload(report.result) == serial

    def test_unit_trials_reproduce_serial_records(self, tmp_path):
        """A unit executing an arbitrary index block writes the exact
        rows the serial run writes (positional seeding)."""
        spec = tiny_spec()
        serial_root, unit_root = tmp_path / "s", tmp_path / "u"
        run_campaign(spec, serial_root, n_jobs=1)
        source = CampaignSource(spec)
        store = source.store(unit_root)
        units = source.plan(store, 0)
        for unit in units:
            source.execute(unit, store, "w0")
        serial_rows = sorted(
            json.dumps(r, sort_keys=True)
            for r in CampaignStore(serial_root).iter_records()
        )
        unit_rows = sorted(
            json.dumps(r, sort_keys=True) for r in store.iter_records()
        )
        assert unit_rows == serial_rows


@dataclass(frozen=True)
class _SlowCampaignSource(CampaignSource):
    """Per-trial sleep, so a drain is slow enough to kill workers in."""

    delay: float = 0.1

    def execute(self, unit, store, worker):
        time.sleep(self.delay * len(unit["trials"]))
        return super().execute(unit, store, worker)


class _SlowAppendStore(CampaignStore):
    """Sleeps after every stored record, so a unit can be killed with
    part of its block on disk."""

    def append(self, fh, record):
        super().append(fh, record)
        time.sleep(0.5)


@dataclass(frozen=True)
class _SlowAppendSource(CampaignSource):
    def store(self, root):
        return _SlowAppendStore(root)


class TestKillSafety:
    def test_requeued_unit_stores_each_trial_once(self, tmp_path):
        """SIGKILL a worker mid-unit and drain again: the re-run unit
        skips the trials its first attempt stored, so every
        ``(cell, trial)`` is on disk exactly once."""
        import multiprocessing

        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=7)
        root = tmp_path / "fab"
        slow = _SlowAppendSource(spec, seed=7, unit_trials=3)
        queue = WorkQueue(root)
        queue.initialize(slow.plan(slow.store(root), 0))
        proc = multiprocessing.Process(
            target=worker_main, args=(slow, root, "w0"),
            kwargs={"lease_ttl": 30.0, "poll": 0.01})
        proc.start()
        record_file = root / "trials-w0.jsonl"
        deadline = time.time() + 30.0
        while time.time() < deadline and not (
                record_file.exists() and record_file.read_text()):
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        assert queue.fail_dead_owner("w0", exitcode=-9) == (1, 0)
        fast = CampaignSource(spec, seed=7, unit_trials=3)
        worker_main(fast, root, "w1", poll=0.01)
        store = fast.store(root)
        keys = [(r["cell"], r["trial"]) for r in store.iter_records()]
        assert len(keys) == len(set(keys)) == 12
        assert result_payload(fast.result(store)) == serial

    def test_replan_of_partial_store_reoffers_queued_ids(self, tmp_path):
        """Blocks sit on a fixed grid: re-planning after part of a block
        is stored offers the ids already queued, not shifted blocks
        that would re-run the rest of the grid a second time."""
        source = CampaignSource(tiny_spec(), unit_trials=4)
        store = source.store(tmp_path)
        first = source.plan(store, 0)
        cell = first[0]["cell"]
        source.execute({"id": "x", "cell": cell, "trials": [0, 1]},
                       store, "w0")
        again = source.plan(store, 0)
        assert [u["id"] for u in again] == [u["id"] for u in first]
        assert again[0]["trials"] == [2, 3]

    def test_kill9_mid_lease_recovers_byte_identical(self, tmp_path):
        """The acceptance proof: SIGKILL a worker holding a lease; the
        drain still completes and the aggregate is byte-identical to
        the serial run."""
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=7)

        source = _SlowCampaignSource(spec, seed=7, unit_trials=2, delay=0.12)
        coord = Coordinator(
            source, tmp_path / "fab", workers=3,
            lease_ttl=1.0, poll=0.02, backoff=0.0,
        )
        report_box = {}

        def run():
            report_box["report"] = coord.drain()

        thread = threading.Thread(target=run)
        thread.start()
        # wait for a worker to hold a lease, then SIGKILL it mid-unit
        queue = WorkQueue(tmp_path / "fab")
        victim = None
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if list(queue.leased.glob("*.json")) and coord.procs:
                for proc in coord.procs.values():
                    if proc.is_alive() and proc.pid:
                        victim = proc.pid
                        break
            if victim:
                break
            time.sleep(0.005)
        assert victim, "no worker took a lease within 30s"
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "drain did not finish after the kill"

        report = report_box["report"]
        assert report.complete and report.units_failed == 0
        assert report.respawned >= 1  # the killed worker was replaced
        assert result_payload(report.result) == serial


# ---------------------------------------------------------------------------
# columnar compaction


class TestColumnar:
    def test_column_codec_roundtrip(self):
        for values in (
            ["converged", "converged", "capped", None, "converged"],
            [1, 2, 3, None],
            [{"a": 1}, {"a": 2}],
            list("ab") * 300,  # dict-encodable, > one would-be chunk
            [f"v{i}" for i in range(300)],  # too many distinct to dict
        ):
            assert _decode_column(_encode_column(values)) == values

    def test_low_cardinality_strings_are_dict_encoded(self):
        payload = _encode_column(["x", "y", "x", None, "x"])
        assert set(payload) == {"dict", "codes"}
        assert payload["dict"] == ["x", "y", None]

    def test_compacted_aggregate_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run = run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        before = sorted(
            json.dumps(r, sort_keys=True) for r in store.iter_records()
        )
        summary = compact_store(store, chunk_rows=5)
        assert summary["rows"] == len(before) and summary["chunks"] >= 3
        after = sorted(
            json.dumps(r, sort_keys=True) for r in iter_store_records(store)
        )
        assert after == before
        cells = _plan_cells(spec, spec.n_values)
        agg = aggregate_records(spec, cells, iter_store_records(store),
                                spec.trials)
        assert result_payload(agg) == result_payload(run.result)

    def test_status_answers_from_columnar_after_prune(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        summary = compact_store(store, prune=True)
        assert summary["pruned"] and not store.record_files()
        status = campaign_status(root)
        assert status["complete"] and status["done"] == status["total"] == 12
        # and the scan path agrees even with the JSONL gone
        assert campaign_status(root, prefer_columnar=False)["done"] == 12

    def test_resume_after_prune_recomputes_nothing(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        first = run_campaign(spec, root, n_jobs=1)
        compact_store(CampaignStore(root), prune=True)
        again = run_campaign(spec, root, n_jobs=1)
        assert again.new_trials == 0 and again.skipped_existing == 12
        assert result_payload(again.result) == result_payload(first.result)

    def test_grown_store_reads_as_stale_and_merges(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1, max_new_trials=8)
        store = CampaignStore(root)
        compact_store(store)
        columnar = ColumnarStore(root)
        assert columnar.fresh(store)
        # more trials land in the same shard file → it grows → stale
        run_campaign(spec, root, n_jobs=1)
        assert not columnar.fresh(store)
        status = campaign_status(root)  # falls back to the merged scan
        assert status["complete"] and status["done"] == 12
        # merged view holds every record exactly once after dedupe
        done = store.completed_index(store.iter_all_records())
        assert sum(len(v) for v in done.values()) == 12

    def test_changed_trials_bound_invalidates_summary(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1)
        store = CampaignStore(root)
        compact_store(store)
        columnar = ColumnarStore(root)
        assert columnar.cells_done(trials=6) is not None
        assert columnar.cells_done(trials=4) is None  # bound changed → rescan

    def test_compaction_swap_replaces_previous_layout(self, tmp_path):
        spec = tiny_spec()
        root = tmp_path / "c"
        run_campaign(spec, root, n_jobs=1, max_new_trials=6)
        store = CampaignStore(root)
        compact_store(store)
        first_rows = ColumnarStore(root).rows()
        run_campaign(spec, root, n_jobs=1)
        compact_store(store)
        assert ColumnarStore(root).rows() == 12 > first_rows
        assert ColumnarStore(root).fresh(store)


# ---------------------------------------------------------------------------
# exploration drain


class TestExplorationDrain:
    @staticmethod
    def drive(source, store, rounds=0):
        """Plan and execute rounds in process until a plan is empty;
        returns the number of rounds that had units."""
        while units := source.plan(store, rounds):
            for unit in units:
                source.execute(unit, store, "w0")
            rounds += 1
        return rounds

    def test_drained_census_matches_serial(self, tmp_path):
        from repro.core.games import SwapGame
        from repro.statespace.explore import explore
        from repro.statespace.store import ExplorationStore

        game = SwapGame("sum")
        serial = explore(game, n=5)
        source = ExplorationSource(game, n=5)
        report = Coordinator(
            source, tmp_path / "x", workers=2, lease_ttl=10.0
        ).drain()
        # 728 seeds are every state there is: one round, 200 a unit
        assert report.complete and report.rounds == 1
        assert report.units_done == 4
        assert report.result.json_bytes() == serial.json_bytes()

        # compact + prune the drained store; the replay still works
        store = ExplorationStore(tmp_path / "x")
        summary = compact_store(store, prune=True)
        assert summary["pruned"] and not store.record_files()
        assert store.status()["complete"]
        replay = explore(game, n=5, store=store)
        assert replay.json_bytes() == serial.json_bytes()

    def test_drained_reachable_component_matches_serial(self, tmp_path):
        from repro.instances.figures import ALL_INSTANCES
        from repro.statespace.explore import explore

        inst = ALL_INSTANCES["fig3"]()
        serial = explore(inst.game, inst.network)
        source = ExplorationSource(inst.game, start=inst.network,
                                   unit_budget=1)
        report = Coordinator(
            source, tmp_path, workers=2, lease_ttl=10.0, poll=0.01
        ).drain()
        assert report.complete and report.rounds >= 2
        assert report.units_done == serial.n_states
        assert report.result.json_bytes() == serial.json_bytes()

    def test_truncated_exploration_raises_named_error(self, tmp_path):
        """A ``max_states`` cut can never complete the graph: the plan
        that finds it raises a named error instead of re-planning one
        more round forever."""
        from repro.core.games import SwapGame
        from repro.experiments.fabric import ExplorationTruncated
        from repro.graphs.generators import path_network

        source = ExplorationSource(SwapGame("sum"), start=path_network(7),
                                   max_states=10)
        coordinator = Coordinator(source, tmp_path, workers=1,
                                  lease_ttl=10.0, poll=0.01)
        with pytest.raises(ExplorationTruncated,
                           match="^exploration truncated at max_states=10$"):
            coordinator.drain()
        # the rounds before the cut ran; nothing failed
        counts = coordinator.queue.counts()
        assert counts["done"] >= 1 and counts["failed"] == 0

    def test_exploration_unit_executes_in_process(self, tmp_path):
        """One unit run directly (no worker process) expands its states
        and the source sees the complete store."""
        from repro.core.games import AsymmetricSwapGame
        from repro.statespace.store import ExplorationStore

        game = AsymmetricSwapGame("sum")
        source = ExplorationSource(game, n=3, unit_budget=100_000)
        store = ExplorationStore(tmp_path)
        [unit] = source.plan(store, 0)
        result = source.execute(unit, store, "w0")
        assert result["states"] == len(unit["states"]) > 0
        assert source.finished(store)
        assert source.result(store).n_states == result["states"]

    def test_units_are_pending_states_in_key_order(self, tmp_path):
        from repro.core.games import SwapGame
        from repro.statespace.explore import seed_keys

        game = SwapGame("sum")
        source = ExplorationSource(game, n=4, unit_budget=10)
        units = source.plan(source.store(tmp_path), 3)
        assert [u["id"] for u in units] == ["r3-u0", "r3-u1", "r3-u2",
                                            "r3-u3"]
        assert [len(u["states"]) for u in units] == [10, 10, 10, 8]
        keys = [key for u in units for key, _ in u["states"]]
        assert keys == sorted(k.hex() for k in seed_keys(game, n=4))

    def test_planning_after_completion_reads_no_record_row(self, tmp_path,
                                                           monkeypatch):
        """The planner keeps its graph: once it is complete, the next
        plan stops without parsing a stored row."""
        from repro.core.games import SwapGame
        from repro.experiments import campaign
        from repro.statespace.store import ExplorationStore

        source = ExplorationSource(SwapGame("sum"), n=4, unit_budget=10)
        store = ExplorationStore(tmp_path)
        assert self.drive(source, store) == 1  # 38 seeds, all of the graph

        def forbidden(*args, **kwargs):
            raise AssertionError("a record row was read")

        monkeypatch.setattr(ExplorationStore, "iter_all_records", forbidden)
        monkeypatch.setattr(campaign, "decode_record_line", forbidden)
        assert source.plan(store, 1) == []
        assert source.finished(store)
        assert source.result(store).n_states == 38

    def test_partial_drain_is_not_finished(self, tmp_path):
        """A round whose units ran only in part leaves the rest pending:
        the source is not finished, and the next plan offers exactly the
        states no row holds yet."""
        from repro.core.games import SwapGame

        source = ExplorationSource(SwapGame("sum"), n=4, unit_budget=10)
        store = source.store(tmp_path)
        first, *rest = source.plan(store, 0)
        source.execute(first, store, "w0")
        assert not source.finished(store)
        assert [u["states"] for u in source.plan(store, 1)] == \
            [u["states"] for u in rest]

    def test_planner_reloads_after_a_record_file_shrinks(self, tmp_path,
                                                          monkeypatch):
        """``fsck --repair`` and ``compact --prune`` shrink or delete
        record files between rounds; the planner's byte offsets no longer
        hold, so it replays the store afresh and the drain still reaches
        the serial bytes."""
        import importlib

        from repro.core.games import SwapGame
        from repro.graphs.generators import path_network
        from repro.statespace.explore import explore

        explore_mod = importlib.import_module("repro.statespace.explore")

        game, start = SwapGame("sum"), path_network(7)
        serial = explore(game, start)
        traversals = []
        real_traverse = explore_mod._traverse

        def counting_traverse(*args, **kwargs):
            traversals.append(kwargs["max_expansions"])
            return real_traverse(*args, **kwargs)

        monkeypatch.setattr(explore_mod, "_traverse", counting_traverse)
        source = ExplorationSource(game, start=start, unit_budget=16)
        store = source.store(tmp_path)
        for rounds, shrink in enumerate((None, "fsck", "prune")):
            for unit in source.plan(store, rounds):
                source.execute(unit, store, f"w{rounds}")
            if shrink == "fsck":
                # rot a row the planner has read: fsck --repair
                # quarantines it, the file shrinks, and the row's state
                # is pending again
                path = store.root / "states-w0.jsonl"
                lines = path.read_text().splitlines(keepends=True)
                lines[0] = lines[0].replace('"succ"', '"SUCC"', 1)
                path.write_text("".join(lines))
                assert store.fsck(repair=True)["repaired"] == 1
            elif shrink == "prune":
                assert compact_store(store, prune=True)["pruned"]
        rounds += 1
        assert self.drive(source, store, rounds) > rounds
        assert traversals == [0, 0, 0]  # first use, then once per shrink
        assert source.result(store).json_bytes() == serial.json_bytes()

    def test_enospc_at_a_unit_append_is_retried(self, tmp_path):
        """A full disk at a unit's append is transient: the unit keeps
        its retry budget, and the retry drains the graph."""
        from repro.core.games import SwapGame
        from repro.testing.faults import Fault, FaultPlan, FaultyFS

        fs = FaultyFS(FaultPlan((Fault(op="append", nth=0, kind="enospc"),)))
        source = ExplorationSource(SwapGame("sum"), n=4, unit_budget=100,
                                   fs=fs)
        store = source.store(tmp_path)
        queue = WorkQueue(tmp_path, fs=fs)

        def run_round() -> bool:
            fabric.worker_main(source, tmp_path, "w0", max_retries=1,
                               backoff=0.0, poll=0.01, fs=fs,
                               install_signals=False)
            return queue.drained()

        assert fabric.run_rounds(source, store, queue, run_round) == 1
        assert fs.any_fired()
        [done] = queue.done_units()
        assert done["retries"] == 1 and "no space left" in done["error"]
        assert not queue.failed_units() and source.finished(store)
        assert source.result(store).n_states == 38

    def test_planner_state_is_not_pickled(self, tmp_path):
        import pickle

        from repro.core.games import SwapGame

        source = ExplorationSource(SwapGame("sum"), n=3)
        assert source.plan(source.store(tmp_path), 0)
        assert source._planner is not None
        clone = pickle.loads(pickle.dumps(source))
        assert clone._planner is None and clone.n == 3


# ---------------------------------------------------------------------------
# queue and source edge cases (races, torn files, protocol)


class TestWorkQueueEdges:
    def test_torn_unit_file_reads_as_none(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        torn = q.pending / "u0.json"
        torn.write_text('{"id": "u0"')  # killed mid-write
        assert WorkQueue._read(torn) is None
        assert q.claim("w0") is None  # skipped, not crashed

    def test_claim_lost_rename_race_moves_on(self, tmp_path, monkeypatch):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        orig = WorkQueue._read

        def read_then_racer_claims(path):
            unit = orig(path)
            path.unlink()  # another worker renames it away first
            return unit

        monkeypatch.setattr(WorkQueue, "_read",
                            staticmethod(read_then_racer_claims))
        assert q.claim("w0") is None
        assert q.counts()["leased"] == 0

    def test_claim_survives_reap_at_instant_of_claim(self, tmp_path,
                                                     monkeypatch):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])

        def reaped(path, unit):
            raise OSError("lease vanished under the stamp")

        monkeypatch.setattr(q, "_write", reaped)
        lease = q.claim("w0")
        assert lease is not None and lease.id == "u0"

    def test_operations_on_vanished_lease_are_noops(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        ghost = Lease({"id": "g", "retries": 0}, q.leased / "g.json")
        q.heartbeat(ghost)  # no file to utime — silently skipped
        assert q.complete(ghost, {"ok": 1}) is True  # done written anyway
        assert q.counts()["done"] == 1
        ghost2 = Lease({"id": "h", "retries": 0}, q.leased / "h.json")
        q.fail_lease(ghost2, "boom", max_retries=0)
        assert q.counts()["failed"] == 1

    def test_reap_cleans_up_lease_completed_by_racer(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        q._write(q.leased / "u0.json", {"id": "u0"})
        q._write(q.done / "u0.json", {"id": "u0"})
        assert q.reap_expired(ttl=0.0) == (0, 0)
        assert q.counts()["leased"] == 0 and q.counts()["done"] == 1

    def test_reap_skips_vanished_and_torn_leases(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        # stat() raises: a lease completed between glob and stat
        (q.leased / "dangle.json").symlink_to(q.root / "missing")
        # torn mid-write with an expired heartbeat: unreadable, skipped
        torn = q.leased / "torn.json"
        torn.write_text('{"id": "t"')
        stale = time.time() - 120.0
        os.utime(torn, (stale, stale))
        assert q.reap_expired(ttl=60.0) == (0, 0)


class TestSourceProtocol:
    def test_base_source_is_abstract(self):
        src = FabricSource()
        store = object()
        for call in (
            lambda: src.store("x"),
            lambda: src.plan(store, 0),
            lambda: src.execute({}, store, "w0"),
            lambda: src.finished(store),
            lambda: src.result(store),
        ):
            with pytest.raises(NotImplementedError):
                call()

    def test_campaign_source_plans_a_single_round(self, tmp_path):
        source = CampaignSource(tiny_spec())
        assert source.plan(source.store(tmp_path), 1) == []

    def test_trial_cap_trims_the_plan_in_cell_then_trial_order(self, tmp_path):
        full = CampaignSource(tiny_spec(), unit_trials=3)
        capped = CampaignSource(tiny_spec(), unit_trials=3, max_new_trials=4)
        every = [(u["cell"], t) for u in full.plan(full.store(tmp_path), 0)
                 for t in u["trials"]]
        units = capped.plan(capped.store(tmp_path), 0)
        assert [(u["cell"], t) for u in units for t in u["trials"]] == every[:4]
        # the cut block is a unit of its own: its id differs from the
        # fixed-grid id a later plan gives the block's tail
        assert [u["id"].endswith("-t0") for u in units] == [True, False]
        assert units[1]["id"].endswith("-t3-to3")
        none = CampaignSource(tiny_spec(), max_new_trials=0)
        assert none.plan(none.store(tmp_path), 0) == []

    @pytest.mark.parametrize("kwargs, name", [
        ({"unit_trials": 0}, "unit_trials"),
        ({"max_new_trials": -1}, "max_new_trials"),
    ])
    def test_campaign_source_rejects_bad_knobs(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            CampaignSource(tiny_spec(), **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"unit_budget": 0}, "unit_budget"),
        ({"max_states": 0}, "max_states"),
    ])
    def test_exploration_source_rejects_bad_knobs(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            ExplorationSource(object(), n=3, **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"workers": 0}, "workers"),
        ({"lease_ttl": 0}, "lease_ttl"),
        ({"lease_ttl": -1.0}, "lease_ttl"),
        ({"max_retries": -1}, "max_retries"),
        ({"unit_timeout": -0.5}, "unit_timeout"),
    ])
    def test_coordinator_rejects_bad_knobs(self, tmp_path, kwargs, name):
        with pytest.raises(ValueError, match=name):
            Coordinator(CampaignSource(tiny_spec()), tmp_path, **kwargs)
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# worker loop and coordinator failure modes


class _ExplodingSource(FabricSource):
    """Every unit raises — exercises the retry/failed-parking path."""

    def store(self, root):
        return CampaignStore(root)

    def plan(self, store, round_index):
        return [{"id": "u0"}] if round_index == 0 else []

    def execute(self, unit, store, worker):
        raise ValueError("synthetic unit failure")

    def finished(self, store):
        return False


class _SuicideSource(_ExplodingSource):
    """The worker process dies mid-unit — exercises fleet collapse."""

    def execute(self, unit, store, worker):
        os.kill(os.getpid(), signal.SIGKILL)


class _EndlessSource(_ExplodingSource):
    """Re-plans fresh units forever — exercises the round budget."""

    multi_round = True

    def plan(self, store, round_index):
        return [{"id": f"r{round_index}"}]

    def execute(self, unit, store, worker):
        return {}


class _LazySource(_ExplodingSource):
    """Offers one unit that is already done — exercises the re-offer
    fast path (enqueue nothing, run no fleet, move to the next round)."""

    multi_round = True

    def finished(self, store):
        return True

    def result(self, store):
        return "ok"


class TestWorkerMain:
    def test_worker_drains_queue_in_process(self, tmp_path):
        source = CampaignSource(tiny_spec(), unit_trials=3)
        store = source.store(tmp_path)
        units = source.plan(store, 0)
        queue = WorkQueue(tmp_path)
        queue.initialize(units)
        done = worker_main(source, tmp_path, "w0", lease_ttl=0.2, poll=0.01)
        assert done == len(units) == 4
        assert queue.drained() and source.finished(store)

    def test_worker_parks_failing_unit(self, tmp_path):
        source = _ExplodingSource()
        queue = WorkQueue(tmp_path)
        queue.initialize(source.plan(None, 0))
        done = worker_main(source, tmp_path, "w0", lease_ttl=5.0,
                           max_retries=0, poll=0.01)
        assert done == 0
        [failed] = queue.failed_units()
        assert "ValueError: synthetic unit failure" in failed["error"]

    def test_heartbeat_thread_warns_once_when_lease_vanishes(self, tmp_path):
        """The satellite fix: a reaped-but-running worker is *visible* —
        the beat thread emits one RuntimeWarning and stops beating
        instead of silently swallowing every failure."""
        q = WorkQueue(tmp_path)
        q.ensure_dirs()
        ghost = Lease({"id": "gone", "retries": 0}, q.leased / "gone.json")
        beat = _HeartbeatThread(q, ghost, interval=0.01)
        with pytest.warns(RuntimeWarning, match="heartbeat lost for unit gone"):
            beat.start()
            beat.join(timeout=5.0)
        assert not beat.is_alive() and beat.warned
        beat.stop()  # harmless on an already-finished thread

    def test_heartbeat_thread_beats_and_stops_cleanly(self, tmp_path):
        q = WorkQueue(tmp_path)
        q.initialize([{"id": "u0"}])
        lease = q.claim("w0")
        beat = _HeartbeatThread(q, lease, interval=0.01)
        beat.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            unit = WorkQueue._read(lease.path)
            if unit is not None and unit.get("beat", 0) >= 2:
                break
            time.sleep(0.01)
        beat.stop()
        assert not beat.is_alive() and not beat.warned
        unit = WorkQueue._read(lease.path)
        assert unit["beat"] >= 2 and unit["owner"] == "w0"
        assert unit["elapsed"] >= 0.0

    def test_worker_finishes_unit_on_first_sigterm(self, tmp_path):
        """Graceful drain, stage one: SIGTERM mid-drain lets the worker
        finish its current unit, then exit cleanly without claiming
        more — nothing is left leased, nothing torn."""
        import multiprocessing

        source = _SlowCampaignSource(tiny_spec(), unit_trials=2, delay=0.15)
        store = source.store(tmp_path)
        units = source.plan(store, 0)
        queue = WorkQueue(tmp_path)
        queue.initialize(units)
        proc = multiprocessing.Process(
            target=worker_main, args=(source, tmp_path, "w0"),
            kwargs={"lease_ttl": 5.0, "poll": 0.01},
        )
        proc.start()
        deadline = time.time() + 30.0
        while time.time() < deadline and not list(queue.leased.glob("*.json")):
            time.sleep(0.005)
        assert list(queue.leased.glob("*.json")), "worker claimed nothing"
        os.kill(proc.pid, signal.SIGTERM)
        proc.join(timeout=60.0)
        assert proc.exitcode == 0  # graceful exit, not a crash
        counts = queue.counts()
        assert counts["leased"] == 0 and counts["failed"] == 0
        assert counts["done"] >= 1  # the in-flight unit was finished
        assert counts["done"] + counts["pending"] == len(units)

    def test_worker_releases_lease_on_second_signal(self, tmp_path):
        """Graceful drain, stage two: a second signal interrupts the
        unit and cleanly releases the lease — requeued, no retry
        burned, records torn mid-write are skipped on read."""
        from repro.experiments.fabric import _DrainNow

        class _BlockingSource(_ExplodingSource):
            def execute(self, unit, store, worker):
                raise _DrainNow()  # what the second SIGTERM raises

        queue = WorkQueue(tmp_path)
        queue.initialize([{"id": "u0"}])
        done = worker_main(_BlockingSource(), tmp_path, "w0",
                           lease_ttl=5.0, poll=0.01, install_signals=False)
        assert done == 0
        assert queue.counts() == {"pending": 1, "leased": 0, "done": 0,
                                  "failed": 0}
        unit = WorkQueue._read(queue.pending / "u0.json")
        assert unit.get("retries", 0) == 0 and "released" in unit["error"]


@dataclass(frozen=True)
class _SignalledCampaignSource(CampaignSource):
    """SIGTERMs its own process from inside a unit, as a drain would."""

    def execute(self, unit, store, worker):
        os.kill(os.getpid(), signal.SIGTERM)  # taken by worker_main
        return super().execute(unit, store, worker)


class TestRunRounds:
    def test_drain_signal_stops_later_calls_in_the_process(self, tmp_path):
        """Drain is asked of the process: after the first signal, a
        caller running worker_main round after round gets no more work
        done, and the round loop reports the round as interrupted."""
        source = _SignalledCampaignSource(tiny_spec(), unit_trials=3)
        queue = WorkQueue(tmp_path)
        store = source.store(tmp_path)

        def run_round():
            worker_main(source, tmp_path, "w0", poll=0.01)
            return queue.drained()

        handler = signal.getsignal(signal.SIGTERM)
        try:
            assert run_rounds(source, store, queue, run_round) == 1
            assert worker_main(source, tmp_path, "w0", poll=0.01) == 0
        finally:
            fabric._DRAIN_ASKED.clear()
        assert signal.getsignal(signal.SIGTERM) is handler
        # the signalled unit was finished, nothing else was claimed
        assert queue.counts() == {"pending": 3, "leased": 0, "done": 1,
                                  "failed": 0}


class TestCoordinatorEdges:
    def test_drain_reports_exhausted_units(self, tmp_path):
        report = Coordinator(_ExplodingSource(), tmp_path, workers=1,
                             max_retries=0, poll=0.01).drain()
        assert not report.complete and report.result is None
        assert report.units_failed == 1 and report.rounds == 1
        assert "synthetic unit failure" in report.failed[0]["error"]

    def test_fleet_collapse_raises_fabric_error(self, tmp_path):
        coord = Coordinator(_SuicideSource(), tmp_path, workers=1,
                            lease_ttl=30.0, poll=0.02, max_respawns=0)
        with pytest.raises(FabricError, match="worker fleet died"):
            coord.drain()
        assert coord.procs == {}  # the fleet was cleaned up on the way out

    def test_drain_round_budget_raises(self, tmp_path):
        coord = Coordinator(_EndlessSource(), tmp_path, workers=1,
                            max_rounds=2, poll=0.01)
        with pytest.raises(FabricError, match="did not converge"):
            coord.drain()

    def test_drain_skips_already_done_offer(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure_dirs()
        queue._write(queue.done / "u0.json", {"id": "u0"})
        report = Coordinator(_LazySource(), tmp_path, workers=1).drain()
        assert report.complete and report.rounds == 0
        assert report.result == "ok" and report.units_done == 1

    def test_sigint_yields_partial_interrupted_report(self, tmp_path):
        """Graceful coordinator drain: SIGINT mid-round stops planning,
        drains the fleet cleanly (no leases left behind), and returns a
        partial report; a fresh drain resumes to byte-identity."""
        spec = tiny_spec()
        serial = serial_payload(tmp_path / "serial", spec, seed=5)
        source = _SlowCampaignSource(spec, seed=5, unit_trials=1, delay=0.4)
        coord = Coordinator(source, tmp_path / "fab", workers=2,
                            lease_ttl=10.0, poll=0.02, drain_grace=30.0)

        def interrupt_once_leased():
            queue = WorkQueue(tmp_path / "fab")
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if list(queue.leased.glob("*.json")):
                    break
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGINT)

        threading.Thread(target=interrupt_once_leased).start()
        report = coord.drain()
        assert report.interrupted and not report.complete
        assert report.result is None
        assert coord.queue.counts()["leased"] == 0  # fleet exited cleanly
        # resuming finishes the campaign with the serial bytes
        fast = CampaignSource(spec, seed=5, unit_trials=1)
        resumed = Coordinator(fast, tmp_path / "fab", workers=2,
                              lease_ttl=10.0, poll=0.02).drain()
        assert resumed.complete and not resumed.interrupted
        assert result_payload(resumed.result) == serial

    def test_sigint_inside_process_start_leaves_no_worker(self, tmp_path,
                                                          monkeypatch):
        """An interrupt delivered inside ``Process.start`` — the child
        forked, the parent not yet holding it — must not leave a worker
        running that the graceful stop cannot see."""
        source = _SlowCampaignSource(tiny_spec(), seed=5, unit_trials=1,
                                     delay=0.4)
        coord = Coordinator(source, tmp_path / "fab", workers=1,
                            lease_ttl=10.0, poll=0.02, drain_grace=30.0)
        real_fork, children = os.fork, []

        def fork_then_interrupt():
            pid = real_fork()
            if pid:
                children.append(pid)
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        def running(pid):
            try:
                return os.waitpid(pid, os.WNOHANG) == (0, 0)
            except ChildProcessError:
                return False  # the coordinator reaped it

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        try:
            report = coord.drain()
        finally:
            monkeypatch.undo()
            leaked = [pid for pid in children if running(pid)]
            for pid in leaked:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert report.interrupted and len(children) == 1
        assert not leaked, "a worker outlived the interrupted drain"
        assert coord.queue.counts()["leased"] == 0


# ---------------------------------------------------------------------------
# columnar edge cases


def synthetic_store(root, rows=12, cells=2, manifest=True) -> CampaignStore:
    """``rows`` records across ``cells`` cells, written as one JSONL."""
    store = CampaignStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    per_cell = rows // cells
    if manifest:
        (store.root / "manifest.json").write_text(json.dumps({
            "version": 1, "figure": "synth", "trials": per_cell,
            "cells": [{"key": f"c{c}", "series": f"s{c}", "n": 8}
                      for c in range(cells)],
        }))
    with store.open_tagged_writer("synth") as fh:
        for i in range(rows):
            store.append(fh, {"cell": f"c{i % cells}", "trial": i // cells,
                              "steps": i, "status": "converged"})
    return store


class TestColumnarEdges:
    def test_uncompacted_root_reads_empty(self, tmp_path):
        store = CampaignStore(tmp_path)
        columnar = ColumnarStore(tmp_path)
        assert not columnar.exists()
        assert columnar.load_manifest() is None
        assert columnar.rows() == 0
        assert columnar.cells_done() is None
        assert not columnar.fresh(store)
        assert columnar.covered_files(store) == set()
        assert list(columnar.iter_rows()) == []

    def test_summary_needs_wellformed_store_manifest(self, tmp_path):
        # no store manifest: compaction works, but no status summary
        bare = synthetic_store(tmp_path / "a", manifest=False)
        assert compact_store(bare)["rows"] == 12
        assert ColumnarStore(bare.root).cells_done() is None
        # a manifest without a usable trials bound: same
        bad = synthetic_store(tmp_path / "b")
        (bad.root / "manifest.json").write_text('{"figure": "x"}')
        compact_store(bad)
        assert ColumnarStore(bad.root).cells_done() is None

    def test_stale_tmp_and_old_dirs_are_cleared(self, tmp_path):
        store = synthetic_store(tmp_path)
        tmp_dir = store.root / f".columnar-{os.getpid()}.tmp"
        tmp_dir.mkdir()
        (tmp_dir / "junk").write_text("x")  # a previous kill's leftovers
        compact_store(store)
        assert not tmp_dir.exists()
        old = store.root / f".columnar-old-{os.getpid()}"
        old.mkdir()
        compact_store(store)
        assert not old.exists()
        assert ColumnarStore(tmp_path).rows() == 12

    def test_prune_tolerates_vanished_source_file(self, tmp_path):
        class GhostlyStore(CampaignStore):
            """Snapshots a record file that no longer exists at prune
            time (deleted by a concurrent prune)."""

            def record_file_sizes(self):
                sizes = dict(super().record_file_sizes())
                sizes["trials-ghost.jsonl"] = 123
                return sizes

        synthetic_store(tmp_path)
        summary = compact_store(GhostlyStore(tmp_path),
                                prune=True)
        assert "trials-ghost.jsonl" not in summary["pruned"]
        assert summary["pruned"] and not CampaignStore(tmp_path).record_files()


def test_retired_parquet_compaction_fails_with_named_error(tmp_path):
    store = synthetic_store(tmp_path)
    compact_store(store)
    columnar = ColumnarStore(tmp_path)
    manifest = columnar.load_manifest()
    manifest["format"] = "parquet"
    columnar.manifest_path().write_text(json.dumps(manifest))
    with pytest.raises(UnsupportedColumnarFormat, match="'parquet'"):
        list(iter_store_records(store))
