"""The durable job table: validation, persistence, workers, recovery.

Every job owns a directory under ``<state_dir>/jobs/<id>/``::

    job.json     atomically-replaced control record (state machine)
    store/       per-job CampaignStore / ExplorationStore (kill-safe),
                 with the job's fabric queue under store/fabric/
    result.json  final payload, written once by the worker
    error.json   named failure, written by the worker on error

``job.json`` is the *only* file the server mutates; the worker process
writes only the store and the result/error files.  That split means a
SIGKILLed server loses nothing: on restart :meth:`JobManager.recover`
re-reads every ``job.json`` and demotes orphaned ``running`` jobs back
to ``queued``, and the re-spawned worker resumes from the store.

A job runs on the campaign fabric (:mod:`repro.experiments.fabric`):
its worker process is a one-worker fleet rooted at ``store/``, which
plans the job's :class:`~repro.experiments.fabric.CampaignSource` or
:class:`~repro.experiments.fabric.ExplorationSource` into the
``WorkQueue`` and drains it with ``fabric.worker_main`` in-process (an
explore job's process is also its planner).  So a job has the fabric's
drain protocol — the first SIGTERM finishes the current unit and the
worker exits :data:`EXIT_RELEASED` (the job goes back to ``queued``), a
second releases the unit's lease at once — and its recovery path:
completed units are never re-run, a unit cut short re-runs only the
trials it had not stored, and a unit that keeps killing its worker is
parked as poison, failing the job with the fabric's diagnosis.
``repro top <state_dir>/jobs/<id>/store`` watches a running job like
any drain.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import secrets
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..experiments import fabric
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..registry.scenario import ScenarioSpec
from ..statespace.expand import AGENT_FILTERS, MOVESETS
from ..testing.faults import resolve_fs
from .quotas import QuotaPolicy

__all__ = [
    "EXIT_DONE",
    "EXIT_FAILED",
    "EXIT_RELEASED",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobRejected",
    "JobRequest",
    "TERMINAL_STATES",
    "job_worker_main",
    "parse_job_request",
]

JOB_KINDS = ("trial", "campaign", "explore")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_JOB_EVENTS = obs_metrics.counter(
    "repro_jobs_events_total",
    "Job lifecycle events seen by the manager",
    ("event",))
_JOB_SUBMITTED = _JOB_EVENTS.labels(event="submitted")
_JOB_STARTED = _JOB_EVENTS.labels(event="started")
_JOB_DONE = _JOB_EVENTS.labels(event="done")
_JOB_FAILED = _JOB_EVENTS.labels(event="failed")
_JOB_CANCELLED = _JOB_EVENTS.labels(event="cancelled")
_JOB_REQUEUED = _JOB_EVENTS.labels(event="requeued")
_JOBS_RUNNING = obs_metrics.gauge(
    "repro_jobs_running",
    "Worker processes currently executing jobs")

#: worker exit codes — the manager's reaper maps them to job states
EXIT_DONE = 0
EXIT_FAILED = 1
#: graceful drain: the job is intact and resumable, put it back in queue
EXIT_RELEASED = 3

#: work-unit sizes: trials per campaign unit, states per explore unit
TRIAL_SLICE = 8
EXPLORE_SLICE = 512

DEFAULT_MAX_STATES = 200_000


class JobRejected(ValueError):
    """A submission the service refuses, with its HTTP rendering."""

    def __init__(self, status: int, code: str, detail: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(f"{code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


def _bad(code: str, detail: str, status: int = 400) -> JobRejected:
    return JobRejected(status, code, detail)


def _require_int(payload: Mapping, key: str, default: Optional[int],
                 minimum: int = 0) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad("bad-int", f"{key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise _bad("bad-int", f"{key!r} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """A validated submission, canonical enough to persist and re-run."""

    kind: str
    specs: Tuple[ScenarioSpec, ...]
    n_values: Tuple[int, ...]
    trials: int = 1
    seed: int = 0
    moves: str = "best"
    agent_filter: str = "all"
    max_states: int = DEFAULT_MAX_STATES

    def payload(self) -> dict:
        """The JSON form stored in ``job.json`` (round-trips via
        :func:`parse_job_request`)."""
        out = {
            "kind": self.kind,
            "specs": [spec.to_json() for spec in self.specs],
            "n_values": list(self.n_values),
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.kind == "explore":
            out.update(moves=self.moves, agent_filter=self.agent_filter,
                       max_states=self.max_states)
        return out

    @property
    def total_units(self) -> int:
        """Planned work units (trials for campaigns, 0 = open for explore)."""
        if self.kind == "explore":
            return 0
        return len(self.specs) * len(self.n_values) * self.trials


def parse_job_request(payload: object,
                      quota: Optional[QuotaPolicy] = None) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`JobRejected` with a named code: ``bad-payload`` /
    ``bad-kind`` / ``bad-spec`` / ``bad-int`` / ``bad-moves`` /
    ``bad-agent-filter`` (400 or 422), or ``limit-exceeded`` (422) when
    a ``quota`` is given and the spec busts a per-job cap.
    """
    if not isinstance(payload, Mapping):
        raise _bad("bad-payload", "request body must be a JSON object")
    kind = payload.get("kind", "trial")
    if kind not in JOB_KINDS:
        raise _bad("bad-kind", f"kind must be one of {JOB_KINDS}, got {kind!r}")

    raw_specs = payload.get("specs")
    if raw_specs is None:
        single = payload.get("spec")
        if single is None:
            raise _bad("bad-payload", "pass 'spec' (object) or 'specs' (list)")
        raw_specs = [single]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise _bad("bad-payload", "'specs' must be a non-empty list")
    if kind != "campaign" and len(raw_specs) != 1:
        raise _bad("bad-payload", f"{kind!r} jobs take exactly one spec")
    specs = []
    for entry in raw_specs:
        if not isinstance(entry, Mapping):
            raise _bad("bad-spec", f"spec must be an object, got {entry!r}", 422)
        try:
            specs.append(ScenarioSpec.from_json(entry))
        except ValueError as exc:
            raise _bad("bad-spec", str(exc), 422) from exc

    raw_ns = payload.get("n_values")
    if raw_ns is None:
        raw_ns = [_require_int(payload, "n", None, minimum=2)]
    if not isinstance(raw_ns, list) or not raw_ns:
        raise _bad("bad-int", "'n_values' must be a non-empty list")
    n_values = tuple(
        _require_int({"n": v}, "n", None, minimum=2) for v in raw_ns)
    if kind in ("trial", "explore") and len(n_values) != 1:
        raise _bad("bad-int", f"{kind!r} jobs take exactly one n")

    trials = _require_int(payload, "trials", 1, minimum=1)
    seed = _require_int(payload, "seed", 0)

    moves = payload.get("moves", "best")
    if moves not in MOVESETS:
        raise _bad("bad-moves", f"moves must be one of {MOVESETS}, got {moves!r}")
    agent_filter = payload.get("agent_filter", "all")
    if agent_filter not in AGENT_FILTERS:
        raise _bad("bad-agent-filter",
                   f"agent_filter must be one of {AGENT_FILTERS}, "
                   f"got {agent_filter!r}")
    max_states = _require_int(payload, "max_states", DEFAULT_MAX_STATES,
                              minimum=1)

    request = JobRequest(kind=kind, specs=tuple(specs), n_values=n_values,
                         trials=trials, seed=seed, moves=moves,
                         agent_filter=agent_filter, max_states=max_states)
    if quota is not None:
        rejection = quota.check_spec_limits(
            n_values=n_values, trials=trials, max_states=max_states)
        if rejection is not None:
            status, code, detail, retry = rejection
            raise JobRejected(status, code, detail, retry)
    return request


# --------------------------------------------------------------------------
# The job record
# --------------------------------------------------------------------------


@dataclass
class Job:
    """One job's control record — the in-memory mirror of ``job.json``."""

    id: str
    kind: str
    state: str
    client: str
    seq: int
    request: dict
    error: Optional[dict] = None
    #: times this job went running -> queued (crash or drain); streams
    #: watch it to tell a resumed job apart from a rescheduling blip
    requeues: int = 0

    def view(self, progress: Optional[dict] = None) -> dict:
        """The JSON the API returns for this job."""
        out = {"id": self.id, "kind": self.kind, "state": self.state,
               "client": self.client, "request": self.request,
               "error": self.error, "requeues": self.requeues}
        if progress is not None:
            out["progress"] = progress
        return out

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "state": self.state,
                "client": self.client, "seq": self.seq,
                "request": self.request, "error": self.error,
                "requeues": self.requeues}

    @classmethod
    def from_json(cls, payload: dict) -> "Job":
        return cls(id=payload["id"], kind=payload["kind"],
                   state=payload["state"], client=payload.get("client", ""),
                   seq=int(payload.get("seq", 0)),
                   request=payload.get("request", {}),
                   error=payload.get("error"),
                   requeues=int(payload.get("requeues", 0)))


# --------------------------------------------------------------------------
# The worker process
# --------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _grid_for(request: JobRequest, job_id: str):
    from ..experiments.config import FigureSpec

    return FigureSpec(
        figure=f"job-{job_id}", title=f"service job {job_id}",
        configs=tuple(request.specs), n_values=request.n_values,
        trials=request.trials)


def _source_for(request: JobRequest, job_id: str) -> fabric.FabricSource:
    """The fabric source a job drains."""
    if request.kind != "explore":
        return fabric.CampaignSource(_grid_for(request, job_id),
                                     seed=request.seed,
                                     unit_trials=TRIAL_SLICE)
    from ..registry import REGISTRY

    spec = request.specs[0]
    n = request.n_values[0]
    game = REGISTRY.build("game", spec.game, spec.params_for("game"), n=n)
    return fabric.ExplorationSource(
        game, n=n, moves=request.moves, agent_filter=request.agent_filter,
        max_states=request.max_states, unit_budget=EXPLORE_SLICE,
        game_name=spec.game)


def _worker_id(job: Job) -> str:
    """The fabric worker id of the job's current process.  Each spawn
    follows one more requeue, so ids sort in spawn order — and so do the
    record files named after them."""
    return f"w{job.requeues:06d}"


def _drain_job(source: fabric.FabricSource, store_dir: Path, worker_id: str,
               fs=None) -> Tuple[str, object]:
    """Drive ``source`` through the fabric in this process, its only
    worker.  Returns ``("done", result)``, ``("failed", detail)`` or
    ``("released", None)`` when a drain signal stopped it."""
    queue = fabric.WorkQueue(store_dir, fs=fs)
    queue.release_orphans(f"released by {worker_id} on start")
    store = source.store(store_dir)

    def run_round() -> bool:
        fabric.worker_main(source, store_dir, worker_id, fs=fs)
        return queue.drained()

    fabric.run_rounds(source, store, queue, run_round)
    failed = queue.failed_units()
    if failed:
        unit = failed[0]
        detail = unit["error"]
        if unit.get("diagnosis"):
            detail = f"{unit['diagnosis']}: {detail}"
        return "failed", detail
    if not queue.drained():
        return "released", None
    return "done", source.result(store)


def job_worker_main(job_dir: str) -> int:
    """Entry point of one job worker process."""
    root = Path(job_dir)
    try:
        job = Job.from_json(json.loads((root / "job.json").read_text()))
        request = parse_job_request(job.request)
        store_dir = root / "store"
        with obs_tracing.span("service.job", job=job.id, kind=request.kind):
            outcome, payload = _drain_job(_source_for(request, job.id),
                                          store_dir, _worker_id(job))
        if outcome == "released":
            return EXIT_RELEASED
        if outcome == "failed":
            _write_json(root / "error.json",
                        {"error": "worker-error", "detail": payload})
            return EXIT_FAILED
        if request.kind == "explore":
            from ..statespace.store import ExplorationStore, write_report

            write_report(ExplorationStore(store_dir), payload)
            result = {"kind": "explore", **payload.to_json()}
        else:
            from ..experiments.campaign import aggregate_payload

            result = {"kind": request.kind, "total": request.total_units,
                      "aggregate": aggregate_payload(payload)}
        _write_json(root / "result.json", result)
        return EXIT_DONE
    except Exception as exc:  # noqa: BLE001 — worker must report, not die
        try:
            _write_json(root / "error.json", {
                "error": "worker-error",
                "detail": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass
        return EXIT_FAILED


def _worker_entry(job_dir: str) -> None:
    # Forked from the server, this process inherits its event loop's
    # signal wakeup fd (which would hand our signals to the server: a
    # cancel would stop it) and its handlers.  Start from the defaults:
    # SIGTERM ends the process between rounds, ``worker_main`` drains
    # inside them, and Ctrl-C is the server's to turn into a drain.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(job_worker_main(job_dir))


# --------------------------------------------------------------------------
# The manager
# --------------------------------------------------------------------------


@dataclass
class JobManager:
    """Owns the job table and the worker pool.

    Runs inside the service's event loop (single-threaded — no locks);
    workers are separate processes so cancel/drain can signal them and
    a crash cannot corrupt the server.  ``workers=0`` disables
    execution entirely (admission-only mode, used by the load bench).
    """

    state_dir: Path
    workers: int = 2
    poll_interval: float = 0.05
    kill_grace: float = 5.0
    fs: object = None

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        self.fs = resolve_fs(self.fs)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs: Dict[str, Job] = {}
        self.procs: Dict[str, multiprocessing.Process] = {}
        self._seq = 0
        self._mp = multiprocessing.get_context()

    # -- persistence -------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def store_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "store"

    def _persist(self, job: Job) -> None:
        path = self.job_dir(job.id) / "job.json"
        tmp = path.with_suffix(".tmp")
        self.fs.write_text(tmp, json.dumps(job.to_json(), sort_keys=True) + "\n")
        self.fs.replace(tmp, path)

    def recover(self) -> dict:
        """Rebuild the job table from disk; orphaned ``running`` jobs
        (their worker died with the old server) go back to ``queued``.
        Their leases go back to pending when the job's next worker
        starts, without counting as a crash."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        requeued = 0
        for path in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                job = Job.from_json(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError):
                continue  # torn control record: job dir is inert, skip it
            if job.state == "running":
                job.state = "queued"
                job.requeues += 1
                self._persist(job)
                requeued += 1
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
        if requeued:
            _JOB_REQUEUED.inc(requeued)
        return {"jobs": len(self.jobs), "requeued": requeued}

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def active_counts(self) -> Tuple[int, Dict[str, int]]:
        """(queued jobs, active jobs per client) — the quota inputs."""
        queued = 0
        per_client: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state == "queued":
                queued += 1
            if job.state in ("queued", "running"):
                per_client[job.client] = per_client.get(job.client, 0) + 1
        return queued, per_client

    def progress(self, job: Job) -> dict:
        """Cheap progress counters read straight off the job's store."""
        if job.kind == "explore":
            from ..statespace.store import ExplorationStore

            status = ExplorationStore(self.store_dir(job.id)).status()
            return {"expanded": status["expanded"],
                    "discovered": status["discovered"],
                    "pending": status["pending"]}
        from ..experiments.campaign import CampaignStore

        store = CampaignStore(self.store_dir(job.id))
        trials = int(job.request.get("trials", 1))
        total = (len(job.request.get("specs", ())) *
                 len(job.request.get("n_values", ())) * trials)
        done = sum(
            len({t for t in idxs if 0 <= t < trials})
            for idxs in store.completed_index(store.iter_all_records()).values()
        )
        return {"done": done, "total": total}

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- submission / cancel ----------------------------------------------
    def submit(self, payload: object, client: str,
               quota: Optional[QuotaPolicy] = None) -> Job:
        """Validate, apply quotas, persist, and enqueue one job."""
        request = parse_job_request(payload, quota)
        if quota is not None:
            queued, per_client = self.active_counts()
            rejection = quota.admit(queued=queued, per_client=per_client,
                                    client=client)
            if rejection is not None:
                status, code, detail, retry = rejection
                raise JobRejected(status, code, detail, retry)
        seq = self._seq
        self._seq += 1
        job_id = f"job-{seq:06d}-{secrets.token_hex(3)}"
        job = Job(id=job_id, kind=request.kind, state="queued", client=client,
                  seq=seq, request=request.payload())
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self._persist(job)
        self.jobs[job_id] = job
        _JOB_SUBMITTED.inc()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; terminal jobs are returned unchanged."""
        job = self.jobs[job_id]
        if job.state in TERMINAL_STATES:
            return job
        job.state = "cancelled"
        self._persist(job)
        _JOB_CANCELLED.inc()
        proc = self.procs.get(job_id)
        if proc is not None and proc.is_alive():
            proc.terminate()
        return job

    # -- scheduling --------------------------------------------------------
    def _spawn_ready(self) -> None:
        free = self.workers - len(self.procs)
        if free <= 0:
            return
        queued = sorted(
            (j for j in self.jobs.values() if j.state == "queued"),
            key=lambda j: j.seq)
        for job in queued[:free]:
            job.state = "running"
            self._persist(job)
            proc = self._mp.Process(
                target=_worker_entry, args=(str(self.job_dir(job.id)),),
                daemon=True)
            proc.start()
            self.procs[job.id] = proc
            _JOB_STARTED.inc()
        _JOBS_RUNNING.set(len(self.procs))

    def _reap(self) -> None:
        for job_id in list(self.procs):
            proc = self.procs[job_id]
            if proc.is_alive():
                continue
            del self.procs[job_id]
            proc.join()
            job = self.jobs[job_id]
            if job.state == "cancelled":
                continue
            code = proc.exitcode
            if code:
                # recover the lease the worker died holding, and park a
                # unit that keeps killing workers, as the Coordinator does
                fabric.WorkQueue(self.store_dir(job_id)).fail_dead_owner(
                    _worker_id(job), exitcode=code)
            if code == EXIT_DONE and self.result_path(job_id).exists():
                job.state = "done"
                _JOB_DONE.inc()
            elif code == EXIT_RELEASED or code in (-signal.SIGTERM,
                                                   -signal.SIGKILL):
                job.state = "queued"  # drained or killed: intact, re-runnable
                job.requeues += 1
                _JOB_REQUEUED.inc()
            else:
                job.state = "failed"
                job.error = self._read_error(job_id, code)
                _JOB_FAILED.inc()
            self._persist(job)
        _JOBS_RUNNING.set(len(self.procs))

    def _read_error(self, job_id: str, code: Optional[int]) -> dict:
        path = self.job_dir(job_id) / "error.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return {"error": "worker-exit",
                    "detail": f"worker exited with code {code}"}

    async def run(self, stop: asyncio.Event) -> None:
        """The scheduler loop: spawn ready jobs, reap finished workers."""
        while not stop.is_set():
            self._reap()
            self._spawn_ready()
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.poll_interval)
            except asyncio.TimeoutError:
                pass

    async def drain(self) -> None:
        """The fabric's drain semantics: SIGTERM each worker (finish the
        unit), escalate after ``kill_grace``, requeue whatever released."""
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + self.kill_grace
        while self.procs and time.monotonic() < deadline:
            self._reap()
            if not self.procs:
                break
            await asyncio.sleep(self.poll_interval)
        for proc in self.procs.values():  # stragglers: second TERM, then KILL
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=0.5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._reap()
