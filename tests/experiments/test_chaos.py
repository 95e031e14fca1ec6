"""Chaos suite: seeded fault injection against the campaign fabric.

Every test here drives a *complete* drain of a small campaign through a
:class:`~repro.testing.faults.FaultyFS` armed with a fault plan —
crashes at rename boundaries, torn and short appends, a full disk,
clock skew, stalled workers, compactions killed mid-swap — "rebooting"
after each injected death and re-driving until the campaign finishes.
The acceptance bar is always the same and always exact: the faulted
drain's aggregate must be **byte-identical** to a serial run's, because
aggregates are pure functions of the deduped record set and the fabric
is designed so no fault can corrupt that set undetected.

The committed plans (one per named failure family) make the suite a
regression net; the seeded plans (:meth:`FaultPlan.seeded`) make it a
search — any seed replays its exact failure sequence, so a failing
seed is a permanent reproducer.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    decode_record_line,
    encode_record_line,
    run_campaign,
)
from repro.experiments.columnar import (
    ColumnarStore,
    compact_store,
    iter_store_records,
)
from repro.experiments.config import FigureSpec
from repro.experiments.fabric import CampaignSource, WorkQueue
from repro.registry import ScenarioSpec
from repro.testing.faults import Fault, FaultPlan, FaultyFS, InjectedCrash

TTL = 60.0  # reaped via explicit ``now=`` instants; wall time never waits


def chaos_spec() -> FigureSpec:
    """Two series, four trials: 4 work units at unit_trials=2 — enough
    operations for every plan to bite, small enough for dozens of
    faulted drains."""
    return FigureSpec(
        figure="figC",
        title="chaos test grid",
        configs=(
            ScenarioSpec(game="asg", policy="maxcost", game_params={"mode": "sum"},
                         topology_params={"budget": 1}),
            ScenarioSpec(game="asg", policy="random", game_params={"mode": "sum"},
                         topology_params={"budget": 2}),
        ),
        n_values=(8,),
        trials=4,
    )


@pytest.fixture(scope="module")
def serial_payload(tmp_path_factory) -> bytes:
    """The ground-truth aggregate from one serial, fault-free run."""
    root = tmp_path_factory.mktemp("serial")
    run = run_campaign(chaos_spec(), root, n_jobs=1)
    assert run.complete
    return json.dumps(aggregate_payload(run.result), sort_keys=True).encode()


def chaos_drain(root, fs: FaultyFS, max_reboots: int = 200):
    """Drain the chaos campaign to completion through ``fs``.

    An in-process rendition of worker + reaper: claim, execute,
    complete; on an injected death, revive the fs (the reboot) and
    continue as a *new* worker identity, reaping the dead incarnation's
    lease with the two-step observe/expire pattern (explicit ``now``
    instants, so no test ever sleeps a TTL).  Live faults (ENOSPC,
    short writes) surface as unit errors and retry, exactly as
    ``worker_main`` treats them.

    Returns ``(aggregate_payload_bytes, reboots)``.
    """
    source = CampaignSource(spec=chaos_spec(), seed=0, unit_trials=2, fs=fs)
    queue = WorkQueue(root, fs=fs)  # the reaper's view outlives every worker
    reboots = 0
    while True:
        try:
            queue.ensure_dirs()
            store = source.store(root)
            queue.initialize(source.plan(store, 0))
            while True:
                lease = queue.claim(f"w{reboots}")
                if lease is None:
                    if queue.drained():
                        break
                    t = time.monotonic()
                    queue.reap_expired(TTL, max_retries=1000, backoff=0.0,
                                       now=t)
                    queue.reap_expired(TTL, max_retries=1000, backoff=0.0,
                                       now=t + TTL + 1)
                    continue
                try:
                    result = source.execute(lease.unit, store, f"w{reboots}")
                except Exception as exc:  # noqa: BLE001 — live faults retry
                    queue.fail_lease(lease, f"{type(exc).__name__}: {exc}",
                                     max_retries=1000, backoff=0.0)
                    continue
                queue.complete(lease, result)
        except InjectedCrash:
            fs.revive()
            reboots += 1
            assert reboots <= max_reboots, (
                f"{fs.plan.describe()} wedged the drain"
            )
            continue
        except OSError:
            continue  # a live fault hit a queue transition; just retry
        break
    assert source.finished(store), "chaos drain did not finish the campaign"
    payload = json.dumps(
        aggregate_payload(source.result(store)), sort_keys=True
    ).encode()
    return payload, reboots


# ---------------------------------------------------------------------------
# the committed plans — one per named failure family


class TestCommittedPlans:
    def test_crash_at_every_rename_boundary(self, tmp_path, serial_payload):
        # both sides of the first queue transitions: death before the
        # rename takes effect, and death just after it does
        fs = FaultyFS(FaultPlan((
            Fault(op="rename", nth=0, kind="crash"),
            Fault(op="rename", nth=1, kind="crash_after"),
            Fault(op="replace", nth=4, kind="crash"),
            Fault(op="replace", nth=7, kind="crash_after"),
        )))
        payload, reboots = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert reboots >= 4
        assert payload == serial_payload

    def test_torn_append_loses_nothing(self, tmp_path, serial_payload):
        # a worker dies mid-JSONL-line; the torn fragment must stay an
        # isolated bad line and the record must land on re-execution
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=2, kind="torn", frac=0.5),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload
        # the fragment is still on disk — and fsck points straight at it
        report = CampaignStore(tmp_path).fsck()
        assert [d["reason"] for d in report["damaged"]] == ["unparsable"]

    def test_enospc_is_a_retryable_unit_error(self, tmp_path, serial_payload):
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=1, kind="enospc"),
            Fault(op="write", nth=6, kind="enospc"),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload

    def test_short_write_surfaces_and_retries(self, tmp_path, serial_payload):
        # EIO after a prefix: the process survives, sees the failure,
        # and the retry must not weld onto the leftover fragment
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=3, kind="short", frac=0.8),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload

    def test_clock_skew_beyond_ttl_is_harmless(self, tmp_path, serial_payload):
        # every stat/utime the fabric or compactor issues sees times
        # shifted by 4 TTLs — content-based heartbeats and size-based
        # freshness must not care
        fs = FaultyFS(FaultPlan((
            Fault(op="stat", nth=0, kind="skew", skew=4 * TTL, once=False),
            Fault(op="utime", nth=0, kind="skew", skew=-4 * TTL, once=False),
        )))
        payload, _ = chaos_drain(tmp_path, fs)
        assert payload == serial_payload
        # compaction stats every record file through the skewed fs and
        # must still come out fresh and byte-preserving
        store = CampaignStore(tmp_path, fs=fs)
        compact_store(store)
        assert fs.any_fired()
        assert ColumnarStore(tmp_path).fresh(store)

    def test_stalled_worker_unit_is_reassigned(self, tmp_path, serial_payload):
        # one worker claims a unit and never comes back (simulated by
        # abandoning the lease); the reaper hands it to the next worker
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=0, kind="stall", stall=0.05),
        )))
        source = CampaignSource(spec=chaos_spec(), seed=0, unit_trials=2,
                                fs=fs)
        queue = WorkQueue(tmp_path, fs=fs)
        queue.ensure_dirs()
        store = source.store(tmp_path)
        queue.initialize(source.plan(store, 0))
        stuck = queue.claim("stalled")  # claimed, never executed
        assert stuck is not None
        t = time.monotonic()
        queue.reap_expired(TTL, max_retries=1000, now=t)
        assert queue.counts()["leased"] == 1  # observed, not yet expired
        queue.reap_expired(TTL, max_retries=1000, now=t + TTL + 1)
        assert queue.counts()["leased"] == 0  # reassignable again
        payload, _ = chaos_drain(tmp_path, fs)
        assert fs.any_fired()
        assert payload == serial_payload


# ---------------------------------------------------------------------------
# a service job on the fabric


class TestServiceJob:
    """A ``repro serve`` job runs on the same queue and the same worker
    loop, so it must survive the same faults with the same exactness:
    the records it streams equal a direct ``run_campaign`` of its
    payload, each trial exactly once."""

    PAYLOAD = {"kind": "trial", "n": 8, "trials": 20, "seed": 3,
               "spec": {"game": {"name": "sg", "params": {"mode": "sum"}},
                        "topology": {"name": "budget",
                                     "params": {"budget": 2}}}}

    def test_crash_plan_drains_to_the_direct_records(self, tmp_path):
        from dataclasses import replace

        from repro.service.jobs import (
            _drain_job, _grid_for, _source_for, parse_job_request)
        from repro.service.stream import RecordTail

        request = parse_job_request(self.PAYLOAD)
        root = tmp_path / "store"
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=2, kind="torn", frac=0.5),  # mid-unit
            Fault(op="rename", nth=1, kind="crash_after"),  # claim, no owner
            Fault(op="replace", nth=5, kind="crash"),
            Fault(op="append", nth=12, kind="crash"),
        )))
        source = replace(_source_for(request, "job-chaos"), fs=fs)
        reboots = 0
        while True:
            worker = f"w{reboots:06d}"  # one more requeue per spawn
            try:
                outcome, _ = _drain_job(source, root, worker, fs=fs)
                break
            except InjectedCrash:
                fs.revive()
                # the reaper's half of a worker death
                WorkQueue(root).fail_dead_owner(worker, exitcode=-9)
                reboots += 1
                assert reboots <= 20, f"{fs.plan.describe()} wedged the job"
        assert outcome == "done" and reboots >= 4
        streamed = sorted(RecordTail(root).poll())
        direct_root = tmp_path / "direct"
        run_campaign(_grid_for(request, "job-chaos"), direct_root,
                     seed=request.seed, n_jobs=1)
        direct = sorted(line for path in sorted(direct_root.glob("*.jsonl"))
                        for line in path.read_text().splitlines() if line)
        assert streamed == direct
        trials = [json.loads(line)["trial"] for line in streamed]
        assert sorted(trials) == list(range(20))


    def test_explore_plan_drains_to_the_direct_census(self, tmp_path,
                                                      monkeypatch):
        """An explore job's planner survives the same faults: a torn
        append and crashes restart the job process (a fresh planner
        replays the store), a full disk retries its unit, and the
        report equals the direct census byte for byte."""
        import repro.service.jobs as jobs_mod
        from dataclasses import replace

        from repro.service.jobs import (
            _drain_job, _source_for, parse_job_request)
        from repro.statespace.explore import explore

        # a census seeds all 728 states, so its one round has 4 units
        monkeypatch.setattr(jobs_mod, "EXPLORE_SLICE", 200)
        request = parse_job_request({"kind": "explore", "n": 5,
                                     "spec": self.PAYLOAD["spec"]})
        root = tmp_path / "store"
        fs = FaultyFS(FaultPlan((
            Fault(op="append", nth=150, kind="torn", frac=0.5),  # mid-unit
            Fault(op="append", nth=400, kind="enospc"),
            Fault(op="replace", nth=3, kind="crash"),  # planning round 0
            Fault(op="append", nth=650, kind="crash"),
        )))
        reboots = 0
        while True:
            worker = f"w{reboots:06d}"
            source = replace(_source_for(request, "job-chaos"), fs=fs)
            try:
                outcome, report = _drain_job(source, root, worker, fs=fs)
                break
            except InjectedCrash:
                fs.revive()
                WorkQueue(root).fail_dead_owner(worker, exitcode=-9)
                reboots += 1
                assert reboots <= 20, f"{fs.plan.describe()} wedged the job"
        assert outcome == "done" and reboots == 3
        assert sorted(kind for kind, _, _ in fs.fired) == [
            "crash", "crash", "enospc", "torn"]
        assert len(WorkQueue(root).done_units()) >= 4
        game = _source_for(request, "direct").game
        assert report.json_bytes() == \
            explore(game, n=5, game_name="sg").json_bytes()


# ---------------------------------------------------------------------------
# seeded plans — reproducible random fault sequences


class TestSeededPlans:
    # seeds chosen so every plan actually fires against this workload's
    # operation sequence (asserted below — a refactor that changes the
    # sequence enough to dodge a plan must pick seeds that still bite);
    # together they cover torn appends, crashes on both sides of rename
    # and replace, ENOSPC, and torn whole-file writes
    SEEDS = (0, 2, 5, 7, 12, 25)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_plan_drains_byte_identical(self, tmp_path, seed,
                                               serial_payload):
        fs = FaultyFS(FaultPlan.seeded(seed, horizon=12))
        payload, reboots = chaos_drain(tmp_path, fs)
        assert fs.any_fired(), (
            f"seed {seed} never fired: {fs.plan.describe()}"
        )
        assert payload == serial_payload, (
            f"aggregate diverged under {fs.plan.describe()} "
            f"after {reboots} reboots"
        )

    def test_same_seed_builds_same_plan(self):
        assert FaultPlan.seeded(42) == FaultPlan.seeded(42)
        assert FaultPlan.seeded(42) != FaultPlan.seeded(43)


# ---------------------------------------------------------------------------
# interrupted compaction — crash at *every* injected point of the swap


class TestInterruptedCompaction:
    def drained_store(self, root) -> CampaignStore:
        fs = FaultyFS(FaultPlan())  # no faults: just build the records
        chaos_drain(root, fs)
        return CampaignStore(root)

    def record_keys(self, store) -> set:
        return {(r["cell"], r["trial"]) for r in iter_store_records(store)}

    def test_compaction_survives_crash_at_every_point(self, tmp_path):
        """Sweep the crash point across the whole compaction: kill it at
        the nth filesystem operation for every n until a full compaction
        runs fault-free, verifying after each death that every record is
        still readable and a clean recompaction recovers."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        assert expected  # the sweep must protect something real
        crash_points = 0
        for nth in range(200):
            fs = FaultyFS(FaultPlan((Fault(op="*", nth=nth, kind="crash"),)))
            faulted = CampaignStore(tmp_path, fs=fs)
            try:
                compact_store(faulted, prune=True)
            except InjectedCrash:
                fs.revive()
                crash_points += 1
                # death mid-compaction may leave tmp dirs, half-written
                # manifests, an interrupted swap — never a lost record
                assert self.record_keys(store) == expected, (
                    f"records lost after crash at op {nth}"
                )
                # and the next, clean compaction fully recovers
                summary = compact_store(CampaignStore(tmp_path), prune=True)
                assert summary["rows"] >= len(expected)
                assert self.record_keys(store) == expected
                continue
            if not fs.any_fired():
                break  # nth beyond the op count: swept every point
        else:
            pytest.fail("compaction op sweep never terminated")
        assert crash_points > 0
        assert self.record_keys(store) == expected

    def test_interrupted_swap_recovers_on_next_read(self, tmp_path):
        """Death *between* the two swap renames leaves only the backup
        dir; the next reader must rename it back, losing nothing."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        compact_store(store, prune=True)  # records now live in columnar/
        fs = FaultyFS(FaultPlan((
            Fault(op="rename", path=".columnar-old", kind="crash_after"),
        )))
        faulted = CampaignStore(tmp_path, fs=fs)
        with pytest.raises(InjectedCrash):
            compact_store(faulted)
        assert fs.any_fired()
        assert not (tmp_path / "columnar" / "manifest.json").exists()
        assert self.record_keys(store) == expected  # recovery on read
        assert (tmp_path / "columnar" / "manifest.json").exists()

    def test_shrunk_covered_file_makes_compaction_stale(self, tmp_path):
        """Freshness must catch a covered JSONL file *shrinking* (a
        truncation, a replaced file), not only growing — and the
        recompaction must restore the truncated rows from the prior
        compaction rather than inherit the loss."""
        store = self.drained_store(tmp_path)
        expected = self.record_keys(store)
        compact_store(store)
        columnar = ColumnarStore(tmp_path)
        assert columnar.fresh(store)
        victim = store.record_files()[0]
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]))  # drop the last record
        assert not columnar.fresh(store)
        assert victim.name not in columnar.covered_files(store)
        summary = compact_store(store, prune=True)
        assert summary["rows"] == len(expected)
        assert self.record_keys(store) == expected
        assert ColumnarStore(tmp_path).fresh(store)


# ---------------------------------------------------------------------------
# fsck — checksummed stores report exactly the damage


class TestFsck:
    def damaged_store(self, root):
        """A drained store plus two precise injuries: a torn garbage
        line and a bit-flip that keeps valid JSON but breaks the CRC."""
        fs = FaultyFS(FaultPlan())
        chaos_drain(root, fs)
        store = CampaignStore(root)
        # a fault-free drain uses one worker, hence one record file —
        # split it so each injury lands in its own file
        torn_file = store.record_files()[0]
        lines = torn_file.read_text().splitlines()
        half = len(lines) // 2
        flip_file = torn_file.with_name(
            torn_file.name.replace(".jsonl", "-aux.jsonl")
        )
        flip_file.write_text("\n".join(lines[half:]) + "\n")
        torn_file.write_text("\n".join(lines[:half]) + "\n")
        with open(torn_file, "a") as fh:
            fh.write('{"cell": "figC/asg-sum-maxcost/n8", "tr')  # torn
        lines = flip_file.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["steps"] = rec.get("steps", 0) + 1  # body no longer matches CRC
        lines[0] = json.dumps(rec, sort_keys=True)
        flip_file.write_text("\n".join(lines) + "\n")
        return store, torn_file, flip_file

    def test_fsck_reports_exactly_the_damaged_lines(self, tmp_path):
        store, torn_file, flip_file = self.damaged_store(tmp_path)
        report = store.fsck()
        assert {(d["file"], d["reason"]) for d in report["damaged"]} == {
            (torn_file.name, "unparsable"),
            (flip_file.name, "checksum"),
        }
        assert report["repaired"] == 0
        # the read path already tolerates what fsck reports
        ok_now = sum(1 for _ in store.iter_records())
        assert ok_now == report["records_ok"]

    def test_repair_quarantines_and_leaves_a_clean_store(self, tmp_path):
        store, torn_file, flip_file = self.damaged_store(tmp_path)
        before = {(r["cell"], r["trial"], json.dumps(r, sort_keys=True))
                  for r in store.iter_records()}
        report = store.fsck(repair=True)
        assert report["repaired"] == 2
        # damaged raw lines are preserved verbatim in quarantine
        quarantined = sorted(store.corrupt_dir().glob("*.bad"))
        assert len(quarantined) == 2
        assert (store.corrupt_dir() / f"{torn_file.name}.bad").exists()
        assert (store.corrupt_dir() / f"{flip_file.name}.bad").exists()
        # the store is now provably clean and lost no good record
        clean = store.fsck()
        assert clean["damaged"] == [] and clean["repaired"] == 0
        after = {(r["cell"], r["trial"], json.dumps(r, sort_keys=True))
                 for r in store.iter_records()}
        assert after == before

    def test_fsck_tolerates_legacy_and_foreign_lines(self, tmp_path):
        fs = FaultyFS(FaultPlan())
        chaos_drain(tmp_path, fs)
        store = CampaignStore(tmp_path)
        victim = store.record_files()[0]
        with open(victim, "a") as fh:
            # a pre-checksum legacy record: valid JSON, no _crc
            legacy = {"cell": "figC/x/n8", "trial": 99, "steps": 1,
                      "status": "converged"}
            fh.write(json.dumps(legacy, sort_keys=True) + "\n")
            # a foreign row (checksummed, but not a campaign record)
            fh.write(encode_record_line({"kind": "note"}) + "\n")
        report = store.fsck()
        assert report["damaged"] == []
        assert report["foreign"] == 1

    def test_encode_decode_roundtrip_and_tamper_detection(self):
        rec = {"cell": "c", "trial": 3, "steps": 7}
        line = encode_record_line(rec)
        assert decode_record_line(line) == (rec, None)
        tampered = line.replace('"steps": 7', '"steps": 8')
        assert decode_record_line(tampered) == (None, "checksum")
        assert decode_record_line(line[:-4]) == (None, "unparsable")
