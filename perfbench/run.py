"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11-n100 --seed 1 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced repetitions;
``--trace 1`` first repeats the operation untraced, then again with
span wrappers installed around every layer, asserts both produce the
same outputs, and reports the per-layer metrics.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the run's provenance.

``perfbench/summary.py`` runs every workload and prints the table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
from tracer import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"

#: set-up is measured this many times, each in a fresh process
SETUP_PROBES = 5


def provenance(seed: int, traced: bool) -> dict:
    """Machine, interpreter, library and source identity of a result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()

    commit, dirty = None, None
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "traced": traced,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def measure_setup(args) -> float:
    """Median over fresh processes of process start -> set-up done."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
             "--setup-probe", repr(started), "--workdir", str(args.workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def setup_probe(workload, args) -> int:
    """Child side of :func:`measure_setup`: set up, report, tear down."""
    workdir = Path(args.workdir) / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workload.inputs(args.seed, args.size)
        ctx = workload.setup(inputs, workdir)
        print(time.time() - float(args.setup_probe))
        workload.teardown(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_reps(workload, ctx, inputs, workdir, count):
    """Time ``count`` repetitions: ``[(rep, seconds, OpResult)]``."""
    runs = []
    for rep in range(count):
        rep_inputs = workload.rep_inputs(inputs, rep)
        t0 = time.perf_counter()
        res = workload.operation(ctx, rep_inputs, workdir, str(rep))
        runs.append((rep, time.perf_counter() - t0, res))
    return runs


def end_to_end(runs, setup_s: float) -> dict:
    # medians over repetitions, so one stalled repetition moves nothing
    samples = ([x for _, _, res in runs for x in res.latencies]
               or [dt for _, dt, _ in runs])
    return {
        "work_per_s": statistics.median(res.items / dt for _, dt, res in runs),
        "op_s_p50": statistics.median(samples),
        "op_s_p90": percentile(samples, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(workload, ctx, inputs, workdir, seconds):
    """Untraced repetitions, then repetition 0 again untraced and traced.

    The warm untraced rerun is the base of ``trace.overhead_pct``.
    Returns the untraced runs, the per-layer metrics, and the problems
    found: a traced output that differs from the untraced one, a heavy
    layer with no calls, or self times that exceed the traced wall time.
    """
    plain = run_reps(workload, ctx, inputs, workdir,
                     max(1, round(seconds / 2 / workload.nominal_op_s)))
    rep0 = workload.rep_inputs(inputs, 0)
    t0 = time.perf_counter()
    warm = workload.operation(ctx, rep0, workdir, "warm")
    warm_s = time.perf_counter() - t0
    dump_dir = workdir / "spans"
    dump_dir.mkdir()
    rec = tracer.Recorder(dump_dir)
    installed = tracer.install(rec)
    try:
        t0 = time.perf_counter()
        traced = workload.operation(ctx, rep0, workdir, "traced")
        wall = time.perf_counter() - t0
    finally:
        installed.remove()
    metrics = tracer.layer_metrics(rec.collect(), wall)
    metrics["trace.overhead_pct"] = (wall / warm_s - 1.0) * 100.0
    metrics["trace.wall_s"] = wall
    metrics["service.jobs"] = len(traced.extra.get("submit", ()))
    metrics["service.submit_s_p50"] = percentile(traced.extra.get("submit", ()), 50)
    metrics["service.first_record_s_p50"] = percentile(
        traced.extra.get("first", ()), 50)
    metrics["service.stream_s_p50"] = percentile(traced.extra.get("stream", ()), 50)
    metrics["service.rejected"] = sum(traced.extra.get("rejected", ()))
    metrics["service.requeues"] = sum(traced.extra.get("requeues", ()))

    problems = []
    if warm.output != plain[0][2].output:
        problems.append("rerunning repetition 0 changed its output")
    if traced.output != plain[0][2].output:
        problems.append("the traced run's output differs from the untraced run's")
    work = ("calls", "br_evals", "lookups", "selects", "steps", "trials",
            "expansions", "appends", "units", "jobs")
    for layer in workload.heavy_layers:
        if not any(metrics.get(f"{layer}.{what}") for what in work):
            problems.append(f"the traced run recorded no {layer} calls")
    if metrics["trace.self_sum_s"] > metrics["trace.lane_s"]:
        problems.append("per-layer self times exceed the traced wall time")
    return plain, metrics, problems


def check_outputs(workload, inputs, runs, workdir, pinned) -> None:
    """Every check of every repetition; raises ``CheckFailed``."""
    from workloads import require

    for rep, _dt, res in runs:
        if workload.distinct_reps or rep == 0:
            workload.check(workload.rep_inputs(inputs, rep), res, workdir)
        else:  # reran repetition 0's inputs: must reproduce its output
            require(res.output == runs[0][2].output,
                    f"repetition {rep} output differs from repetition 0")
        if pinned is not None:
            index = rep if workload.distinct_reps else 0
            if index < len(pinned):
                require(workload.pins(res) == pinned[index],
                        f"repetition {rep} output differs from the pinned value")


def run(args) -> int:
    from definitions import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, CheckFailed, DEFAULT_SEED

    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        return setup_probe(workload, args)

    inputs = workload.inputs(args.seed, args.size)
    setup_s = None if args.trace else measure_setup(args)
    ctx = workload.setup(inputs, args.workdir)
    problems = []
    try:
        if args.trace:
            runs, metrics, problems = traced_metrics(
                workload, ctx, inputs, args.workdir, args.seconds)
        else:
            runs = run_reps(workload, ctx, inputs, args.workdir,
                            workload.reps(args.seconds))
            metrics = end_to_end(runs, setup_s)
    finally:
        workload.teardown(ctx)

    pinned = None
    if args.seed == DEFAULT_SEED and args.size == "full" and PINNED.exists():
        pinned = json.loads(PINNED.read_text()).get(workload.name)
    try:
        check_outputs(workload, inputs, runs, args.workdir, pinned)
    except CheckFailed as exc:
        problems.append(f"output check failed: {exc}")
    if args.write_pin:
        write_pin(workload, runs)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        units = dict(PER_LAYER)
    else:
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    print(json.dumps({"provenance": provenance(args.seed, bool(args.trace)),
                      "workload": workload.name, "size": args.size}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(res.attempted for _, _, res in runs),
        "failed": sum(res.failed for _, _, res in runs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def write_pin(workload, runs) -> None:
    """Record the default seed's outputs as the pinned values."""
    table = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    kept = runs if workload.distinct_reps else runs[:1]
    table[workload.name] = [workload.pins(res) for _, _, res in kept]
    PINNED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so :func:`reap_descendants`
    can wait for a worker whose parent exited first."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in task.read_text().split())
        except OSError:
            pass
    return pids


def reap_descendants(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Lets stragglers finish for ``grace`` seconds, then sends SIGTERM and
    finally SIGKILL; orphaned grandchildren are adopted (see
    :func:`become_subreaper`) and reaped too.
    """
    import signal
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # closes its pipe, waits
    except Exception:  # noqa: BLE001 — private API; the loop below backs it up
        pass
    deadline = time.monotonic() + grace
    signals = [signal.SIGTERM, signal.SIGKILL]
    while True:
        while True:  # collect every child that has already ended
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return  # no child left
            if pid == 0:
                break
        if time.monotonic() > deadline:
            if not signals:
                return
            sig = signals.pop(0)
            for pid in child_pids():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs, for the benchmark's own tests")
    parser.add_argument("--write-pin", action="store_true",
                        help="record this run's outputs as the pinned values "
                             "(default seed, full size)")
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    own_workdir = args.workdir is None
    if own_workdir:
        args.workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    # keep every temporary file of the program inside the checkout
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(args.workdir)
    become_subreaper()
    try:
        return run(args)
    except Exception:  # noqa: BLE001 — report, never print a result
        traceback.print_exc()
        return 1
    finally:
        reap_descendants()
        if own_workdir:
            shutil.rmtree(args.workdir, ignore_errors=True)
            try:
                args.workdir.parent.rmdir()  # only when no other run uses it
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
