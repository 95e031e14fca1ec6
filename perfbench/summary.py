"""Run every workload and print the benchmark's full table.

Usage (from the repository root)::

    python3 perfbench/summary.py [--seed 1] [--seconds 20] [--baseline]

Each workload runs twice through ``perfbench/run.py``: untraced for the
end-to-end metrics, then traced for the per-layer breakdown.  The first
table lists every end-to-end metric by workload with its unit; the
second lists every per-layer metric by workload.  ``--baseline`` writes
both, with the provenance of each run, to ``perfbench/baseline.json``.
``--benchmark-json`` rewrites ``BENCHMARK.json`` from the definitions
in this directory and exits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from definitions import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation: its provenance and result lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} (trace={trace}) exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    out = json.loads(lines[-1])
    out["provenance"] = json.loads(lines[-2])["provenance"]
    return out


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=benchmark_json()["run_seconds"])
    parser.add_argument("--baseline", action="store_true",
                        help="write the results to perfbench/baseline.json")
    parser.add_argument("--benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0

    runs = {}
    for name in WORKLOADS:
        runs[name] = {trace: run_once(name, args.seed, args.seconds, trace)
                      for trace in (0, 1)}

    names = list(WORKLOADS)
    print(f"end-to-end metrics (untraced, seed {args.seed}, "
          f"{args.seconds} s per run)")
    print(f"  {'workload':<14} {'metric':<12} {'unit':<5} {'value':>12}  check")
    for name in names:
        res = runs[name][0]
        verdict = "ok" if res["correct"] else "WRONG"
        for metric, (unit, _better, _bound) in END_TO_END.items():
            value = res["metrics"][metric]["value"]
            print(f"  {name:<14} {metric:<12} {unit:<5} {fmt(value):>12}  "
                  f"{verdict} ({res['failed']}/{res['attempted']} failed)")
    print()
    print("per-layer metrics (traced run)")
    width = max(len(n) for n in PER_LAYER)
    print(f"  {'metric':<{width}} {'unit':<6} "
          + " ".join(f"{n:>14}" for n in names))
    for metric, unit in PER_LAYER.items():
        cells = [fmt(runs[n][1]["metrics"][metric]["value"]) for n in names]
        print(f"  {metric:<{width}} {unit:<6} "
              + " ".join(f"{c:>14}" for c in cells))
    print()
    print("provenance:", json.dumps(runs[names[0]][0]["provenance"]))

    if args.baseline:
        baseline = {
            "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                name: {
                    "end_to_end": {m: v["value"] for m, v in
                                   runs[name][0]["metrics"].items()},
                    "per_layer": {m: v["value"] for m, v in
                                  runs[name][1]["metrics"].items()},
                    "correct": runs[name][0]["correct"] and runs[name][1]["correct"],
                    "provenance": {"untraced": runs[name][0]["provenance"],
                                   "traced": runs[name][1]["provenance"]},
                }
                for name in names
            },
        }
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    ok = all(r[t]["correct"] for r in runs.values() for t in (0, 1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
