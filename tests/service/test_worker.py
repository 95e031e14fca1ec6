"""The worker entry points, run in-process.

The real service runs :func:`job_worker_main` in a child process, which
the coverage tracer cannot follow — these tests call the same entry
points directly so the fabric round loop, the drain outcome, the
recovery paths and the error reporting are exercised (and traced)
without a fork.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import socket
import time

import pytest

import repro.service.jobs as jobs_mod
from repro.experiments import fabric
from repro.experiments.campaign import CampaignStore
from repro.service.jobs import (
    EXIT_DONE,
    EXIT_FAILED,
    EXIT_RELEASED,
    JobManager,
    JobRejected,
    _drain_job,
    _source_for,
    _worker_entry,
    _worker_id,
    job_worker_main,
    parse_job_request,
)
from repro.service.quotas import QuotaPolicy

from tests.service.conftest import SG_SPEC, trial_payload


def explore_payload(n: int = 4, **extra) -> dict:
    return {"kind": "explore", "spec": SG_SPEC, "n": n, **extra}


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(tmp_path / "state", workers=0)
    mgr.recover()
    return mgr


@pytest.fixture
def drain_asked():
    """Stand in for a drain signal the job process took; the flag is
    process state, so never leak it across tests."""
    fabric._DRAIN_ASKED.set()
    yield
    fabric._DRAIN_ASKED.clear()


class TestWorkerMain:
    def test_trial_job_runs_to_done(self, manager):
        job = manager.submit(trial_payload(n=6, trials=2), "w")
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_DONE
        result = json.loads(manager.result_path(job.id).read_text())
        assert result["kind"] == "trial"
        assert result["total"] == 2
        assert result["aggregate"]
        # the per-job store now answers the manager's progress query
        assert manager.progress(job) == {"done": 2, "total": 2}
        # the records carry the worker id of the spawn that wrote them
        assert [p.name for p in manager.store_dir(job.id).glob("*.jsonl")] \
            == ["trials-w000000.jsonl"]

    def test_explore_job_runs_to_done(self, manager):
        job = manager.submit(explore_payload(n=4), "w")
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_DONE
        result = json.loads(manager.result_path(job.id).read_text())
        assert result["kind"] == "explore"
        progress = manager.progress(job)
        assert progress["expanded"] > 0 and progress["pending"] == 0

    def test_truncated_explore_fails_with_named_error(self, manager):
        job = manager.submit(explore_payload(n=4, max_states=10), "w")
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_FAILED
        error = json.loads((manager.job_dir(job.id) / "error.json").read_text())
        assert error["error"] == "worker-error"
        assert error["detail"].startswith("ExplorationTruncated: ")
        assert "truncated" in error["detail"]

    def test_torn_control_record_fails_cleanly(self, tmp_path):
        job_dir = tmp_path / "job-torn"
        job_dir.mkdir()
        (job_dir / "job.json").write_text("{not json")
        assert job_worker_main(str(job_dir)) == EXIT_FAILED
        assert (job_dir / "error.json").exists()

    def test_drain_asked_exits_with_release_code(self, manager, drain_asked):
        job = manager.submit(trial_payload(), "w")
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_RELEASED
        assert not manager.result_path(job.id).exists()
        assert not (manager.job_dir(job.id) / "error.json").exists()

    def test_worker_metrics_fold_into_the_job_fleet(self, manager):
        job = manager.submit(trial_payload(n=6, trials=2), "w")
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_DONE
        snap = fabric.fleet_snapshot(manager.store_dir(job.id))
        events = snap["repro_fabric_lease_events_total"]["values"]
        assert events[json.dumps({"event": "completed"})] == 1


def _fake_server_child(job_dir, ready, wsock) -> None:
    """A job process forked from ``repro serve``: the server's event
    loop left a signal wakeup fd and a no-op SIGTERM handler behind."""
    signal.set_wakeup_fd(wsock.fileno())
    signal.signal(signal.SIGTERM, lambda signum, frame: None)

    def sleeper(_job_dir):
        ready.set()
        time.sleep(30)
        return EXIT_DONE

    jobs_mod.job_worker_main = sleeper
    _worker_entry(job_dir)


class TestWorkerEntry:
    def test_worker_entry_exits_with_worker_code(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "job_worker_main", lambda d: 3)
        handlers = {sig: signal.getsignal(sig)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            with pytest.raises(SystemExit) as exc:
                _worker_entry("ignored")
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
        assert exc.value.code == 3

    def test_inherited_server_signal_state_is_dropped(self, tmp_path):
        """A cancel SIGTERMs the job process; it must end that process
        and must not reach the server through the inherited wakeup fd
        (which made the server stop)."""
        rsock, wsock = socket.socketpair()
        rsock.setblocking(False)
        wsock.setblocking(False)
        ready = multiprocessing.Event()
        proc = multiprocessing.Process(
            target=_fake_server_child, args=(str(tmp_path), ready, wsock),
            daemon=True)
        proc.start()
        try:
            assert ready.wait(timeout=30.0)
            proc.terminate()
            proc.join(timeout=10.0)
            assert proc.exitcode == -signal.SIGTERM
            with pytest.raises(BlockingIOError):
                rsock.recv(16)
        finally:
            if proc.is_alive():
                proc.kill()
            rsock.close()
            wsock.close()


class TestDrainOutcomes:
    def test_campaign_job_releases_on_drain_then_resumes(self, tmp_path,
                                                         drain_asked):
        request = parse_job_request(trial_payload(n=6, trials=12))
        store = tmp_path / "drain-campaign"
        source = _source_for(request, "job-x")
        assert _drain_job(source, store, "w000000") == ("released", None)
        fabric._DRAIN_ASKED.clear()
        outcome, result = _drain_job(source, store, "w000001")
        assert outcome == "done" and result.spec.trials == 12

    def test_explore_job_releases_between_rounds(self, tmp_path, monkeypatch):
        """A drain signal taken during one round's unit stops the job at
        the next round, even though that round's queue ran dry.  A
        census seeds every state, so its frontier empties in one round;
        a reachable component takes one round per BFS layer."""
        from repro.core.games import SwapGame
        from repro.graphs.generators import path_network
        from repro.statespace.explore import explore

        game, start = SwapGame("sum"), path_network(7)
        source = fabric.ExplorationSource(game, start=start, unit_budget=4)
        real_worker_main = fabric.worker_main

        def signalled_worker_main(*args, **kwargs):
            try:
                return real_worker_main(*args, **kwargs)
            finally:
                fabric._DRAIN_ASKED.set()  # taken inside the first round

        monkeypatch.setattr(fabric, "worker_main", signalled_worker_main)
        store = tmp_path / "drain-explore"
        try:
            assert _drain_job(source, store, "w000000") == ("released", None)
        finally:
            fabric._DRAIN_ASKED.clear()
        assert fabric.WorkQueue(store).counts()["done"] == 1  # the start
        monkeypatch.setattr(fabric, "worker_main", real_worker_main)
        outcome, report = _drain_job(source, store, "w000001")
        assert outcome == "done"
        assert report.json_bytes() == explore(game, start).json_bytes()

    def test_multi_round_job_decodes_each_row_at_most_twice(self, tmp_path,
                                                            monkeypatch):
        """The job's planner keeps its graph between rounds and replays
        only the rows a round appended: no stored row is decoded more
        than twice, however many rounds the job plans."""
        from collections import Counter

        from repro.core.games import SwapGame
        from repro.experiments import campaign
        from repro.graphs.generators import path_network

        decodes = Counter()
        real_decode = campaign.decode_record_line

        def counting_decode(line):
            decodes[line] += 1
            return real_decode(line)

        monkeypatch.setattr(campaign, "decode_record_line", counting_decode)
        source = fabric.ExplorationSource(SwapGame("sum"),
                                          start=path_network(7), unit_budget=16)
        outcome, report = _drain_job(source, tmp_path, "w000000")
        assert outcome == "done" and report.n_states == 258
        rounds = len({u["id"].split("-")[0]
                      for u in fabric.WorkQueue(tmp_path).done_units()})
        assert rounds >= 5
        assert sum(decodes.values()) >= 258 and max(decodes.values()) <= 2


def _claim_as_current_worker(manager, job) -> None:
    """Plan the job's queue and lease a unit as its current worker."""
    store_dir = manager.store_dir(job.id)
    source = _source_for(parse_job_request(job.request), job.id)
    queue = fabric.WorkQueue(store_dir)
    queue.initialize(source.plan(source.store(store_dir), 0))
    assert queue.claim(_worker_id(job)) is not None


class _DeadProcess:
    def __init__(self, exitcode: int) -> None:
        self.exitcode = exitcode

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass


class TestRecovery:
    def test_unit_that_keeps_killing_its_worker_fails_the_job(self, manager):
        job = manager.submit(trial_payload(n=6, trials=2), "w")
        for spawn in range(3):
            job.state = "running"
            _claim_as_current_worker(manager, job)
            manager.procs[job.id] = _DeadProcess(-signal.SIGKILL)
            manager._reap()
            assert job.state == "queued" and job.requeues == spawn + 1
        [parked] = fabric.WorkQueue(manager.store_dir(job.id)).failed_units()
        assert parked["diagnosis"] == "poison" and parked["crashes"] == 3
        # the next spawn finds the parked unit and fails the job with it
        assert job_worker_main(str(manager.job_dir(job.id))) == EXIT_FAILED
        error = json.loads((manager.job_dir(job.id) / "error.json").read_text())
        assert error["error"] == "worker-error"
        assert error["detail"].startswith("poison: worker w000002 died")

    def test_recovered_job_releases_its_lease_without_a_crash(self, tmp_path):
        writer = JobManager(tmp_path / "state", workers=0)
        writer.recover()
        job = writer.submit(trial_payload(n=6, trials=2), "w")
        job.state = "running"
        writer._persist(job)
        _claim_as_current_worker(writer, job)

        revived = JobManager(tmp_path / "state", workers=0)
        assert revived.recover() == {"jobs": 1, "requeued": 1}
        assert job_worker_main(str(revived.job_dir(job.id))) == EXIT_DONE
        [unit] = fabric.WorkQueue(revived.store_dir(job.id)).done_units()
        assert "crashes" not in unit and "released" in unit["error"]
        store = CampaignStore(revived.store_dir(job.id))
        assert sorted(r["trial"] for r in store.iter_records()) == [0, 1]


class TestParseEdges:
    def test_explore_requests_have_open_total(self):
        assert parse_job_request(explore_payload()).total_units == 0

    def test_empty_specs_list_is_bad_payload(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"specs": [], "n": 4})
        assert exc.value.code == "bad-payload"

    def test_non_object_spec_entry_is_bad_spec(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"kind": "campaign", "specs": ["sg"], "n": 4})
        assert exc.value.code == "bad-spec" and exc.value.status == 422

    def test_scalar_n_values_is_bad_int(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"spec": SG_SPEC, "n_values": 7})
        assert exc.value.code == "bad-int"

    def test_trial_with_two_n_values_is_bad_int(self):
        with pytest.raises(JobRejected) as exc:
            parse_job_request({"spec": SG_SPEC, "n_values": [4, 5]})
        assert exc.value.code == "bad-int"

    def test_max_states_cap_is_422(self):
        quota = QuotaPolicy(max_states=100)
        with pytest.raises(JobRejected) as exc:
            parse_job_request(explore_payload(max_states=101), quota)
        assert exc.value.code == "limit-exceeded" and exc.value.status == 422
        rejection = quota.check_spec_limits(
            n_values=(4,), trials=1, max_states=101)
        assert rejection[0] == 422 and "max_states" in rejection[2]


class TestManagerEdges:
    def test_recover_skips_torn_control_records(self, tmp_path):
        mgr = JobManager(tmp_path / "state", workers=0)
        good = mgr.submit(trial_payload(), "w")
        torn = mgr.jobs_dir / "job-torn"
        torn.mkdir()
        (torn / "job.json").write_text("{half a reco")
        fresh = JobManager(tmp_path / "state", workers=0)
        recovered = fresh.recover()
        assert recovered == {"jobs": 1, "requeued": 0}
        assert set(fresh.jobs) == {good.id}

    def test_read_error_without_error_file_names_the_exit(self, manager):
        error = manager._read_error("job-gone", 7)
        assert error["error"] == "worker-exit"
        assert "7" in error["detail"]


def _stubborn_worker(ready) -> None:
    """A worker that ignores SIGTERM — drain must escalate to SIGKILL."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    time.sleep(60)


class TestDrainEscalation:
    def test_sigterm_deaf_worker_is_killed_and_requeued(self, tmp_path):
        mgr = JobManager(tmp_path / "state", workers=1,
                         poll_interval=0.01, kill_grace=0.1)
        mgr.recover()
        job = mgr.submit(trial_payload(), "w")
        job.state = "running"
        mgr._persist(job)
        ready = multiprocessing.Event()
        proc = mgr._mp.Process(target=_stubborn_worker, args=(ready,),
                               daemon=True)
        proc.start()
        assert ready.wait(timeout=10.0)
        mgr.procs[job.id] = proc
        asyncio.run(mgr.drain())
        assert not mgr.procs
        assert not proc.is_alive()
        # killed mid-run: the job is intact and goes back in the queue
        assert mgr.jobs[job.id].state == "queued"
