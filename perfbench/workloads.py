"""The benchmark's four workloads.

Each workload is driven through a public entry point users already
call, in one benchmark process:

* ``fig11-n100``   — ``run_figure`` on the SUM-GBG Figure 11 slice at n=100;
* ``census-sg5``   — an exhaustive SUM-SG census the way ``repro explore``
  runs it (CLI default backend, an ``ExplorationStore`` in a fresh dir);
* ``drain-fig7``   — ``drain_campaign`` of the SUM-ASG Figure 7 slice, then
  ``compact_store`` and ``campaign_status``;
* ``service-jobs`` — an in-process ``repro serve`` with two closed-loop
  client threads submitting SG trial jobs and streaming them to the end.

A workload builds its inputs from the workload seed alone
(:meth:`Workload.inputs`, :meth:`Workload.rep_inputs`), sets up once,
repeats one timed operation, and checks every operation's output
(:meth:`Workload.check`).  Checks raise :class:`CheckFailed`; a wrong
result is never reported as slow.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: the seed whose outputs ``pinned.json`` pins
DEFAULT_SEED = 1


class CheckFailed(AssertionError):
    """An operation's output is wrong (or differs from a pinned value)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(payload) -> str:
    """sha256 of raw bytes, or of a canonical JSON rendering."""
    if not isinstance(payload, (bytes, bytearray)):
        payload = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass
class OpResult:
    """Outcome of one timed operation."""

    #: canonical output; a repetition of the same inputs reproduces it
    output: dict
    #: work items completed (trials, or census states)
    items: int
    #: requests attempted and failed inside the operation (trials,
    #: fabric units, jobs)
    attempted: int = 1
    failed: int = 0
    #: per-request latencies, for workloads whose operation is a batch
    #: of requests (empty: the operation's wall time is the sample)
    latencies: List[float] = field(default_factory=list)
    #: client-side timings the traced run reports as per-layer metrics
    extra: Dict[str, list] = field(default_factory=dict)
    #: in-memory result a check needs but the output does not carry
    artifact: object = None


class Workload:
    name = ""
    why = ""
    #: layers whose calls must be nonzero in the traced run
    heavy_layers: tuple = ()
    #: expected wall time of one operation.  A run of S seconds makes
    #: ``max(min_reps, round(S / nominal_op_s))`` repetitions, so the
    #: work of a run depends on its arguments, never on machine speed.
    nominal_op_s = 1.0
    min_reps = 1
    #: whether repetition r runs inputs of its own (else every
    #: repetition reruns the same inputs and must reproduce the output)
    distinct_reps = False

    def reps(self, seconds: float) -> int:
        return max(self.min_reps, round(seconds / self.nominal_op_s))

    def inputs(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def rep_inputs(self, inputs: dict, rep: int) -> dict:
        return inputs

    def setup(self, inputs: dict, workdir: Path):
        return None

    def operation(self, ctx, inputs: dict, workdir: Path, tag: str) -> OpResult:
        raise NotImplementedError

    def check(self, inputs: dict, result: OpResult, workdir: Path) -> None:
        """Checks that need no pinned value (they run on every seed)."""
        raise NotImplementedError

    def pins(self, result: OpResult) -> dict:
        """The values of one output that the default seed pins."""
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        pass


# ---------------------------------------------------------------------------


class Fig11(Workload):
    name = "fig11-n100"
    why = ("SUM-GBG Figure 11 slice at n=100 through run_figure: the paper's "
           "figure traffic at its largest n, where the distance kernels dominate")
    heavy_layers = ("graphs", "pricing", "games", "cache", "policy",
                    "dynamics", "runner")
    nominal_op_s = 4.3
    distinct_reps = True

    # toy n stays above 32, where the default backend turns incremental
    SIZES = {"full": {"n": 100}, "toy": {"n": 40}}

    def inputs(self, seed, size):
        return {"seed": seed, **self.SIZES[size]}

    def rep_inputs(self, inputs, rep):
        # one trial per series and repetition, each repetition seeded apart
        return {**inputs, "seed": inputs["seed"] * 1000 + rep}

    def setup(self, inputs, workdir):
        from repro.experiments.gbg import figure11_spec
        import repro.experiments.campaign  # noqa: F401 — timed as set-up

        return figure11_spec(n_values=(inputs["n"],), trials=1)

    def operation(self, spec, inputs, workdir, tag):
        from repro.experiments.campaign import aggregate_payload
        from repro.experiments.runner import run_figure

        result = run_figure(spec, seed=inputs["seed"], n_jobs=1)
        cells = [s for per_n in result.series.values() for s in per_n.values()]
        output = {
            "aggregate": digest(aggregate_payload(result)),
            "steps": sum(sum(s.steps) for s in cells),
            "non_converged": result.non_converged_total(),
            "trials": sum(s.trials for s in cells),
        }
        return OpResult(output, items=output["trials"],
                        attempted=output["trials"],
                        failed=output["non_converged"])

    def check(self, inputs, result, workdir):
        out = result.output
        require(out["non_converged"] == 0,
                f"{out['non_converged']} trials hit the step cap")
        require(out["trials"] == 8, f"expected 8 trials, got {out['trials']}")

    def pins(self, result):
        return {"aggregate": result.output["aggregate"],
                "steps": result.output["steps"]}


class Census(Workload):
    name = "census-sg5"
    why = ("exhaustive SUM-SG census at n=5 as repro explore runs it: many "
           "tiny dense-oracle calls, statespace codec and the exploration store")
    heavy_layers = ("graphs", "pricing", "games", "statespace", "store")
    nominal_op_s = 0.7

    SIZES = {"full": {"n": 5}, "toy": {"n": 4}}

    def inputs(self, seed, size):
        # exhaustive: every connected configuration is explored, so no
        # seed can change the census
        return {"game": "sg", "mode": "sum", **self.SIZES[size]}

    def setup(self, inputs, workdir):
        from repro.registry import REGISTRY
        import repro.statespace.store  # noqa: F401 — timed as set-up

        game = REGISTRY.build("game", inputs["game"], {"mode": inputs["mode"]},
                              n=inputs["n"])
        # the `repro explore` defaults: best moves, every agent
        explore = REGISTRY.build("workload", "explore",
                                 {"moves": "best", "agent_filter": "all",
                                  "max_states": 200_000})
        return {"game": game, "explore": explore}

    def operation(self, ctx, inputs, workdir, tag):
        from repro.statespace.store import ExplorationStore, write_report

        store = ExplorationStore(workdir / f"census-{tag}")
        report = ctx["explore"](ctx["game"], store=store, shard=(0, 1),
                                backend=None, n_jobs=1, max_expansions=None,
                                game_name=inputs["game"], n=inputs["n"])
        write_report(store, report)
        output = {
            "states": report.n_states,
            "equilibria": len(report.equilibria),
            "cycles": len(report.cycles),
            "complete": bool(report.complete),
            "report": digest(report.json_bytes()),
        }
        # the sink oracle is slow: the first repetition carries the report
        artifact = (report, ctx["game"]) if tag == "0" else None
        return OpResult(output, items=report.n_states, artifact=artifact)

    def check(self, inputs, result, workdir):
        from repro.statespace.explore import verify_sinks

        require(result.output["complete"], "census did not complete")
        if result.artifact is not None:
            report, game = result.artifact
            try:
                verify_sinks(report, game)
            except AssertionError as exc:
                raise CheckFailed(f"census sinks: {exc}") from exc

    def pins(self, result):
        return {k: result.output[k]
                for k in ("states", "equilibria", "cycles", "report")}


class DrainFig7(Workload):
    name = "drain-fig7"
    why = ("SUM-ASG Figure 7 slice drained by a 2-worker fleet, compacted and "
           "status-read: cheap trials, so leases, spawns and row I/O dominate")
    heavy_layers = ("dynamics", "runner", "store", "fabric")
    nominal_op_s = 2.3

    SIZES = {"full": {"n_values": [10, 20], "trials": 50},
             "toy": {"n_values": [10], "trials": 2}}

    def inputs(self, seed, size):
        return {"seed": seed, **self.SIZES[size]}

    @staticmethod
    def spec(inputs):
        from repro.experiments.asg_budget import figure7_spec

        return figure7_spec(n_values=tuple(inputs["n_values"]),
                            trials=inputs["trials"])

    def setup(self, inputs, workdir):
        import repro.experiments.columnar  # noqa: F401 — timed as set-up
        import repro.experiments.fabric  # noqa: F401

        return self.spec(inputs)

    def operation(self, spec, inputs, workdir, tag):
        from repro.experiments.campaign import (CampaignStore, aggregate_payload,
                                                campaign_status)
        from repro.experiments.columnar import compact_store
        from repro.experiments.fabric import drain_campaign

        root = workdir / f"drain-{tag}"
        report = drain_campaign(spec, root, seed=inputs["seed"], workers=2,
                                unit_trials=2)
        compact_store(CampaignStore(root))
        status = campaign_status(root)
        output = {
            "aggregate": (json.dumps(aggregate_payload(report.result),
                                     sort_keys=True)
                          if report.result is not None else None),
            "complete": bool(report.complete and status["complete"]),
            "units_failed": report.units_failed,
            "done": status["done"],
        }
        return OpResult(output, items=status["done"],
                        attempted=report.units_done + report.units_failed,
                        failed=report.units_failed)

    def check(self, inputs, result, workdir):
        from repro.experiments.campaign import aggregate_payload, run_campaign

        out = result.output
        require(out["units_failed"] == 0, f"{out['units_failed']} units failed")
        require(out["complete"], "drain or status reports an incomplete campaign")
        root = workdir / "serial"
        serial = run_campaign(self.spec(inputs), root, seed=inputs["seed"],
                              n_jobs=1)
        shutil.rmtree(root)
        require(out["aggregate"] == json.dumps(aggregate_payload(serial.result),
                                               sort_keys=True),
                "drained aggregate differs from the serial run_campaign")
        require(out["done"] == serial.total,
                f"status counts {out['done']} trials, serial ran {serial.total}")

    def pins(self, result):
        return {"aggregate": digest(result.output["aggregate"].encode())}


class ServiceJobs(Workload):
    name = "service-jobs"
    why = ("in-process repro serve, 2 workers, 2 closed-loop clients streaming "
           "SG trial jobs: HTTP, websocket, job table and per-job workers")
    heavy_layers = ("runner", "store", "service")
    nominal_op_s = 8.0
    #: two repetitions give at least 100 job latencies, so 10 lie past p90
    min_reps = 2

    SPEC = {"game": {"name": "sg", "params": {"mode": "sum"}},
            "topology": {"name": "budget", "params": {"budget": 2}}}
    SIZES = {"full": {"jobs": 50, "n": 20, "trials": 10},
             "toy": {"jobs": 4, "n": 10, "trials": 2}}
    CLIENTS = 2

    def inputs(self, seed, size):
        size = self.SIZES[size]
        # a distinct seed per job
        payloads = [
            {"kind": "trial", "spec": self.SPEC, "n": size["n"],
             "trials": size["trials"], "seed": seed * 1000 + j}
            for j in range(size["jobs"])
        ]
        return {"payloads": payloads}

    def setup(self, inputs, workdir):
        from repro.service.server import ServiceConfig, ServiceThread
        import repro.service.client  # noqa: F401 — timed as set-up

        return ServiceThread(ServiceConfig(state_dir=workdir / "service",
                                           workers=2)).start()

    def teardown(self, service):
        service.stop()

    def operation(self, service, inputs, workdir, tag):
        payloads = inputs["payloads"]
        jobs: List[Optional[dict]] = [None] * len(payloads)
        cursor = iter(range(len(payloads)))
        lock = threading.Lock()
        errors: List[BaseException] = []

        def client_loop(client):
            while True:
                with lock:
                    j = next(cursor, None)
                if j is None:
                    return
                jobs[j] = run_job(client, payloads[j])

        def guarded(client):
            try:
                client_loop(client)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(service.client(),))
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        done = [j for j in jobs if j["state"] == "done"]
        output = {"jobs": [{"state": j["state"], "records": j["records"]}
                           for j in jobs]}
        extra = {key: [j[key] for j in jobs]
                 for key in ("submit", "first", "stream", "rejected", "requeues")}
        return OpResult(output, items=sum(len(j["records"]) for j in done),
                        attempted=len(payloads),
                        failed=len(payloads) - len(done),
                        latencies=[j["latency"] for j in jobs], extra=extra)

    def check(self, inputs, result, workdir):
        jobs = result.output["jobs"]
        payloads = inputs["payloads"]
        require(len(jobs) == len(payloads),
                f"{len(jobs)} jobs streamed for {len(payloads)} submitted")
        roots = [str(workdir / f"direct-{j}") for j in range(len(payloads))]
        # fork: a spawn pool would start a resource tracker that outlives
        # this process
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            direct = list(pool.map(direct_rows, payloads, roots))
        for j, (payload, job, rows) in enumerate(zip(payloads, jobs, direct)):
            require(job["state"] == "done",
                    f"job {j} ended {job['state']!r}, not 'done'")
            require(job["records"] == rows,
                    f"job {j}: streamed records differ from the direct "
                    "run_campaign rows")
            require(len(rows) == payload["trials"],
                    f"job {j}: {len(rows)} rows for {payload['trials']} trials")

    def pins(self, result):
        return {"records": digest(result.output["jobs"])}


def direct_rows(payload: dict, root: str) -> List[str]:
    """The store rows a direct ``run_campaign`` of a job payload writes."""
    from repro.experiments.campaign import run_campaign
    from repro.service.jobs import _grid_for, parse_job_request

    run_campaign(_grid_for(parse_job_request(payload), "direct"), root,
                 seed=payload["seed"], n_jobs=1)
    rows = sorted(line for path in sorted(Path(root).glob("*.jsonl"))
                  for line in path.read_text().splitlines() if line)
    shutil.rmtree(root)
    return rows


def run_job(client, payload: dict) -> dict:
    """Submit one job, stream it to its end event, time each phase."""
    from repro.service.client import ServiceError

    rejected = 0
    t0 = time.perf_counter()
    while True:
        try:
            job = client.submit(payload)
            break
        except ServiceError as exc:
            if exc.status not in (429, 503):
                raise
            rejected += 1  # admission refused: back off, resubmit
            time.sleep(0.05)
    t_submit = time.perf_counter()
    records, first, state, resumed = [], None, None, 0
    for kind, item in client.stream(job["id"]):
        if kind == "record":
            if first is None:
                first = time.perf_counter()
            records.append(item)
        elif item.get("event") == "resumed":
            resumed += 1
        elif item.get("event") == "end":
            state = item.get("state")
    t_end = time.perf_counter()
    return {"records": sorted(records), "state": state,
            "latency": t_end - t0, "submit": t_submit - t0,
            "first": (first or t_end) - t0, "stream": t_end - t_submit,
            "rejected": rejected, "requeues": resumed}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig11(), Census(), DrainFig7(), ServiceJobs())
}
