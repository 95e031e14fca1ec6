"""Job table: validation, durability, cancel mid-run, kill/restart/resume."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.experiments.campaign import CampaignStore
from repro.service.jobs import (
    JobManager,
    JobRejected,
    parse_job_request,
)
from repro.service.quotas import QuotaPolicy

from tests.service.conftest import SG_SPEC, trial_payload


class TestParseJobRequest:
    def test_single_spec_trial_roundtrips(self):
        request = parse_job_request(trial_payload(n=8, trials=3, seed=5))
        assert request.kind == "trial"
        assert request.n_values == (8,)
        assert request.total_units == 3
        # the canonical payload re-parses to the same request
        assert parse_job_request(request.payload()) == request

    def test_campaign_grid_expands_units(self):
        request = parse_job_request({
            "kind": "campaign", "specs": [SG_SPEC, SG_SPEC],
            "n_values": [8, 10], "trials": 2})
        assert request.total_units == 8

    def test_named_rejections(self):
        cases = [
            ("not an object", "bad-payload"),
            ({"kind": "nope", "spec": SG_SPEC, "n": 8}, "bad-kind"),
            ({"n": 8}, "bad-payload"),
            ({"spec": {"game": "nope"}, "n": 8}, "bad-spec"),
            ({"spec": SG_SPEC}, "bad-int"),
            ({"spec": SG_SPEC, "n": 8, "trials": 0}, "bad-int"),
            ({"spec": SG_SPEC, "n": 8, "trials": True}, "bad-int"),
            ({"kind": "explore", "spec": SG_SPEC, "n": 4,
              "moves": "x"}, "bad-moves"),
            ({"kind": "explore", "spec": SG_SPEC, "n": 4,
              "agent_filter": "x"}, "bad-agent-filter"),
            ({"kind": "trial", "specs": [SG_SPEC, SG_SPEC], "n": 8},
             "bad-payload"),
        ]
        for payload, code in cases:
            with pytest.raises(JobRejected) as err:
                parse_job_request(payload)
            assert err.value.code == code, payload
            assert 400 <= err.value.status < 500

    def test_quota_spec_caps_apply_at_parse_time(self):
        with pytest.raises(JobRejected) as err:
            parse_job_request(trial_payload(n=300), QuotaPolicy(max_n=200))
        assert err.value.code == "limit-exceeded"
        assert err.value.status == 422


def drive(manager: JobManager, condition, timeout: float = 60.0):
    """Run the scheduler loop until ``condition()`` or timeout."""

    async def go():
        stop = asyncio.Event()
        task = asyncio.ensure_future(manager.run(stop))
        try:
            deadline = time.monotonic() + timeout
            while not condition():
                if time.monotonic() > deadline:
                    raise TimeoutError("condition not reached")
                await asyncio.sleep(0.02)
        finally:
            stop.set()
            await task

    asyncio.run(go())


def record_lines(manager: JobManager, job_id: str):
    lines = []
    for path in sorted(manager.store_dir(job_id).glob("*.jsonl")):
        lines += [l for l in path.read_text().splitlines() if l]
    return lines


class TestManagerDurability:
    def test_submit_persists_control_record(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        manager.recover()
        job = manager.submit(trial_payload(), client="t")
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "queued"
        assert stored["request"]["kind"] == "trial"

    def test_recover_rebuilds_table_and_seq(self, tmp_path):
        first = JobManager(tmp_path, workers=0)
        first.recover()
        ids = [first.submit(trial_payload(), client="t").id for _ in range(3)]
        second = JobManager(tmp_path, workers=0)
        counts = second.recover()
        assert counts == {"jobs": 3, "requeued": 0}
        assert sorted(second.jobs) == sorted(ids)
        new = second.submit(trial_payload(), client="t")
        assert new.seq == 3  # sequence continues, no collisions

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        manager.recover()
        job = manager.submit(trial_payload(), client="t")
        assert manager.cancel(job.id).state == "cancelled"
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == "cancelled"

    def test_run_small_job_to_done(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        job = manager.submit(trial_payload(n=8, trials=2), client="t")
        drive(manager, lambda: job.state == "done")
        assert manager.result_path(job.id).exists()
        assert manager.progress(job) == {"done": 2, "total": 2}

    def test_failing_job_reports_named_error(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        # a spec the registry accepts but whose exploration must truncate
        job = manager.submit(
            {"kind": "explore", "spec": SG_SPEC, "n": 5, "max_states": 10},
            client="t")
        drive(manager, lambda: job.state == "failed")
        assert job.error["error"] == "worker-error"
        assert "truncated" in job.error["detail"]


class TestLegacyPayloads:
    LEGACY_BACKENDS = ("auto", "dense", "warp-drive")

    def test_recovered_jobs_with_a_backend_key_run_to_done(self, tmp_path):
        """Control records whose specs carry the retired ``"backend"``
        key — as every record written before it was retired does — are
        recovered and run; the key is ignored, whatever its value."""
        writer = JobManager(tmp_path, workers=0)
        writer.recover()
        for backend in self.LEGACY_BACKENDS:
            job = writer.submit(trial_payload(n=6, trials=1), client="t")
            path = writer.job_dir(job.id) / "job.json"
            stored = json.loads(path.read_text())
            for spec in stored["request"]["specs"]:
                spec["backend"] = backend
            path.write_text(json.dumps(stored, sort_keys=True) + "\n")
        manager = JobManager(tmp_path, workers=1)
        assert manager.recover() == {"jobs": 3, "requeued": 0}
        jobs = list(manager.jobs.values())
        drive(manager, lambda: all(j.state in ("done", "failed") for j in jobs))
        assert [(j.state, j.error) for j in jobs] == [("done", None)] * 3

    def test_submitted_backend_key_is_ignored(self):
        for backend in self.LEGACY_BACKENDS:
            request = parse_job_request(
                trial_payload(spec={**SG_SPEC, "backend": backend}))
            assert request == parse_job_request(trial_payload())
            assert "backend" not in request.payload()["specs"][0]


class TestCancelMidRun:
    def test_cancel_running_job_stops_worker(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        job = manager.submit(trial_payload(n=25, trials=200, seed=1),
                             client="t")
        # wait until the worker has demonstrably started writing records
        drive(manager, lambda: job.state == "running"
              and len(record_lines(manager, job.id)) >= 1)
        manager.cancel(job.id)
        assert job.state == "cancelled"
        drive(manager, lambda: not manager.procs, timeout=30)
        done = len(record_lines(manager, job.id))
        assert done < 200  # it really stopped early
        # cancel is terminal: the reaper must not resurrect the job
        assert job.state == "cancelled"


class TestKillRestartResume:
    """Mirrors the store kill-safety suites at the service level."""

    def test_sigkilled_worker_resumes_with_zero_recompute(self, tmp_path):
        manager = JobManager(tmp_path, workers=1)
        manager.recover()
        job = manager.submit(trial_payload(n=20, trials=60, seed=3),
                             client="t")
        drive(manager, lambda: job.state == "running"
              and len(record_lines(manager, job.id)) >= 3)
        # SIGKILL the worker *and* abandon the manager: the server dies
        for proc in manager.procs.values():
            proc.kill()
            proc.join()

        # a fresh server on the same state dir picks the job back up
        revived = JobManager(tmp_path, workers=1)
        counts = revived.recover()
        assert counts["requeued"] == 1
        resumed = revived.get(job.id)
        assert resumed.state == "queued"
        before = record_lines(revived, job.id)
        assert len(before) >= 3

        drive(revived, lambda: revived.get(job.id).state == "done",
              timeout=120)
        after = record_lines(revived, job.id)
        # zero recomputation: every pre-kill record survives verbatim,
        # and no (cell, trial) was run twice
        assert after[:len(before)] == before
        assert len(after) == 60
        store = CampaignStore(revived.store_dir(job.id))
        trials_seen = [r["trial"] for r in store.iter_all_records()]
        assert len(trials_seen) == len(set(trials_seen)) == 60
        assert revived.progress(resumed) == {"done": 60, "total": 60}

    def test_drain_requeues_running_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=1, kill_grace=10.0)
        manager.recover()
        job = manager.submit(trial_payload(n=20, trials=300, seed=3),
                             client="t")
        drive(manager, lambda: job.state == "running"
              and len(record_lines(manager, job.id)) >= 1)
        asyncio.run(manager.drain())
        assert job.state in ("queued", "done")  # tiny jobs may just finish
        assert not manager.procs
        stored = json.loads((manager.job_dir(job.id) / "job.json").read_text())
        assert stored["state"] == job.state
