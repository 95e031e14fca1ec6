"""End-to-end smoke of ``repro serve``: the real server, real sockets.

Four phases, all against a subprocess running ``python -m repro serve``:

1. trajectory job — submit an SG campaign, stream it over the
   websocket, and require the streamed records to be *byte-identical*
   to running the same spec directly through ``run_campaign``;
2. explore job — same contract against a direct ``explore`` run;
3. kill/restart — SIGKILL the server mid-job, restart it on the same
   state directory, and require the job to resume and finish with
   exactly ``trials`` records (nothing lost, nothing recomputed);
4. drain — SIGTERM must exit 0 after requeueing in-flight work.

Exits non-zero on the first violated invariant.  Used by CI; run
locally with ``PYTHONPATH=src python scripts/service_smoke.py``.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

from repro.experiments.campaign import run_campaign  # noqa: E402
from repro.registry import REGISTRY  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import parse_job_request, _grid_for  # noqa: E402
from repro.statespace.explore import explore  # noqa: E402
from repro.statespace.store import ExplorationStore  # noqa: E402

SPEC = {"game": {"name": "sg", "params": {"mode": "sum"}},
        "topology": {"name": "budget", "params": {"budget": 2}}}
TRIAL_PAYLOAD = {"kind": "trial", "spec": SPEC, "n": 10, "trials": 4, "seed": 7}
EXPLORE_PAYLOAD = {"kind": "explore", "spec": SPEC, "n": 5}  # 728 states: two units

BANNER = re.compile(r"repro\.service listening on [\d.]+:(\d+)")


def start_server(state_dir: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        start_new_session=True)  # own process group: a "crash" kills workers too
    line = proc.stdout.readline()
    match = BANNER.search(line)
    if not match:
        proc.kill()
        raise SystemExit(f"no listening banner, got: {line!r}")
    proc.port = int(match.group(1))
    return proc


def stream_records(client: ServiceClient, job_id: str):
    records, events = [], []
    for kind, item in client.stream(job_id):
        (records if kind == "record" else events).append(item)
    return records, events


def store_lines(store_dir: pathlib.Path):
    lines = []
    for path in sorted(store_dir.glob("*.jsonl")):
        lines += [l for l in path.read_text().splitlines() if l]
    return lines


def check(condition, message):
    if not condition:
        raise SystemExit(f"SMOKE FAILED: {message}")
    print(f"  ok: {message}")


def phase_trajectory(client: ServiceClient, tmp: pathlib.Path):
    print("phase 1: trajectory job, byte-identity vs direct run_campaign")
    job = client.submit(TRIAL_PAYLOAD)
    records, events = stream_records(client, job["id"])
    check(events[-1]["event"] == "end" and events[-1]["state"] == "done",
          "stream ended with state=done")
    grid = _grid_for(parse_job_request(TRIAL_PAYLOAD), "direct")
    run_campaign(grid, tmp / "direct-trial", seed=TRIAL_PAYLOAD["seed"],
                 n_jobs=1)
    direct = store_lines(tmp / "direct-trial")
    check(sorted(records) == sorted(direct),
          f"{len(records)} streamed records byte-identical to direct run")
    result = client.result(job["id"])["result"]
    check(result["total"] == TRIAL_PAYLOAD["trials"], "result total matches")


def phase_explore(client: ServiceClient, tmp: pathlib.Path):
    print("phase 2: explore job, byte-identity vs direct explore")
    job = client.submit(EXPLORE_PAYLOAD)
    records, events = stream_records(client, job["id"])
    check(events[-1]["state"] == "done", "explore stream ended done")
    game = REGISTRY.build("game", "sg", {"mode": "sum"},
                          n=EXPLORE_PAYLOAD["n"])
    direct = ExplorationStore(tmp / "direct-explore")
    explore(game, n=EXPLORE_PAYLOAD["n"], store=direct, game_name="sg")
    check(sorted(records) == sorted(store_lines(direct.root)),
          f"{len(records)} streamed states byte-identical to direct explore")


def phase_kill_restart(state_dir: pathlib.Path, proc: subprocess.Popen):
    print("phase 3: SIGKILL the server mid-job, restart, resume")
    client = ServiceClient("127.0.0.1", proc.port)
    job = client.submit({**TRIAL_PAYLOAD, "n": 20, "trials": 40, "seed": 11})
    store = state_dir / "jobs" / job["id"] / "store"
    deadline = time.monotonic() + 60
    while not store_lines(store) and time.monotonic() < deadline:
        time.sleep(0.05)
    before = store_lines(store)
    check(before, "worker produced records before the kill")
    # SIGKILL the whole group — server and worker die together, exactly
    # like a machine crash; nothing survives to double-write the store
    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    proc.wait()

    revived = start_server(state_dir)
    try:
        client = ServiceClient("127.0.0.1", revived.port)
        view = client.wait(job["id"], timeout=120)
        check(view["state"] == "done", "killed job resumed to done")
        after = store_lines(store)
        check(after[:len(before)] == before,
              "pre-kill records survived the restart verbatim")
        trials = [json.loads(l)["trial"] for l in after]
        check(len(trials) == len(set(trials)) == 40,
              "exactly 40 distinct trials: zero lost, zero recomputed")
    finally:
        revived.terminate()
        revived.wait(timeout=30)
    return revived.returncode


def main() -> int:
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="service-smoke-"))
    state_dir = tmp / "state"
    proc = start_server(state_dir)
    try:
        client = ServiceClient("127.0.0.1", proc.port)
        phase_trajectory(client, tmp)
        phase_explore(client, tmp)
    except BaseException:
        proc.kill()
        raise
    rc = phase_kill_restart(state_dir, proc)
    check(rc == 0, "SIGTERM drain exited 0")
    print("phase 4: drain verified during restart teardown")
    print("service smoke: all phases passed")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, lambda *a: sys.exit("smoke timed out"))
    signal.alarm(600)
    sys.exit(main())
