"""The one harness behind the gated bench scripts.

A bench script is a table of :class:`Cell` definitions plus
``sys.exit(harness.main(CELLS, BASELINE_PATH))``; this module is the
only code in ``benchmarks/`` that times, compares, gates, parses the
command line and writes baselines.

**Cells and references.**  A cell is a named piece of work that returns
its *pins* (exact counts it asserts on the way: states, equilibria,
queue counts, byte-identity).  Every cell names a *reference*: code the
change under test cannot speed up or slow down (a naive census, a
stdlib I/O loop, the per-query rebuild backend).  The harness times the
cell and its reference interleaved — A B A B, N pairs — and records the
median of the per-pair ratios ``cell / reference``.  Host speed divides
out of that ratio, so a baseline recorded on one machine gates a run on
another.

**The gate.**  A cell regresses when its ratio exceeds the baseline's
ratio by more than :data:`REGRESSION_FACTOR`.  Cells whose baseline
timings (cell and reference) both sit below the cell's noise floor
(:data:`MIN_GATE_SECONDS` unless the cell sets its own) are reported but
not gated.  A cell whose timings lie near that floor sets its own —
``0`` to gate it always, ``math.inf`` never — so that which cells are
gated is decided in its definition, not by how fast the host that
recorded the baseline was.  A cell may also carry a ``bound``: a cap on
its same-run ratio, checked on every run whatever the floor, that needs
no baseline at all (the <=2% disabled-telemetry check).

**Runs.**  Standalone runs measure every cell and rewrite the baseline
unless a gate fired; ``--smoke`` (CI) runs the cells flagged ``smoke``
and never writes; ``--no-write`` measures every cell without writing;
``--force-write`` writes even when a gate fired.  Every baseline has
one schema, ``{"env": {machine, cpu_count, python, numpy}, "commit":
..., "cells": {name: {seconds, reference_s, ratio, **pins}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# census references are the naive models of ``tests.reference``
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: a cell regresses when its ratio exceeds the baseline ratio by this factor
REGRESSION_FACTOR = 1.25

#: cells whose baseline timings are all below this are too fast to time
#: reliably (scheduler noise exceeds the 25% margin); reported, not gated
MIN_GATE_SECONDS = 0.1


class Clock:
    """Times the one region a cell marks with ``with clock:``.  A cell
    that marks no region is timed whole; setup outside the region
    (fixtures, servers, synthetic stores) is not timed."""

    seconds: Optional[float] = None

    def __enter__(self) -> "Clock":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


#: the work of a cell or a reference: ``fn(tmp_dir, clock) -> pins``
Work = Callable[[pathlib.Path, Clock], Optional[dict]]


@dataclass(frozen=True)
class Cell:
    name: str
    run: Work
    reference: Work
    smoke: bool = False
    #: interleaved pairs in (full, smoke) runs
    reps: Tuple[int, int] = (9, 7)
    floor: float = MIN_GATE_SECONDS
    #: same-run cap on ``cell / reference``, checked on every run
    bound: Optional[float] = None


def time_once(work: Work) -> Tuple[float, Optional[dict]]:
    """Seconds and pins of one call of ``work`` in a fresh scratch dir."""
    clock = Clock()
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        t0 = time.perf_counter()
        pins = work(tmp, clock)
        whole = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return (whole if clock.seconds is None else clock.seconds), pins


def measure(cell: Cell, reps: int) -> dict:
    """Time ``cell`` and its reference interleaved — A B A B, ``reps``
    pairs after one untimed warm-up pair (imports, caches, lingering
    load).  The ratio is the median of the per-pair ratios: the two
    halves of a pair share the host's current speed, which on a shared
    VM drifts by half over seconds, and the median drops the pairs a
    burst split.  ``seconds`` and ``reference_s`` are best-of-``reps``."""
    time_once(cell.run)
    time_once(cell.reference)
    pairs, pins = [], None
    for _ in range(reps):
        seconds, pins = time_once(cell.run)
        pairs.append((seconds, time_once(cell.reference)[0]))
    return {"seconds": round(min(a for a, _ in pairs), 6),
            "reference_s": round(min(b for _, b in pairs), 6),
            "ratio": round(statistics.median(a / b for a, b in pairs), 4),
            **(pins or {})}


def check(cells, measured: dict, baseline: Optional[dict]) -> Tuple[list, list]:
    """``(failures, ungated cell names)`` of a run against ``baseline``."""
    old_cells = (baseline or {}).get("cells", {})
    failures, ungated = [], []
    for cell in cells:
        new, old = measured[cell.name], old_cells.get(cell.name)
        if cell.bound is not None and new["ratio"] > cell.bound:
            failures.append(f"BOUND {cell.name}: ratio {new['ratio']} > "
                            f"{cell.bound} in the same run")
        scale = max(old["seconds"], old["reference_s"]) if old else \
            max(new["seconds"], new["reference_s"])
        if scale < cell.floor:
            ungated.append(cell.name)
        elif old and new["ratio"] > old["ratio"] * REGRESSION_FACTOR:
            failures.append(
                f"REGRESSION {cell.name}: ratio {old['ratio']} -> {new['ratio']} "
                f"(allowed {REGRESSION_FACTOR:.2f}x = "
                f"{old['ratio'] * REGRESSION_FACTOR:.4g})")
    return failures, ungated


def environment() -> dict:
    machine = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        model = platform.processor()
    return {"machine": f"{machine} {model}".strip(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def commit() -> str:
    """The checkout's HEAD, marked ``-dirty`` when the tree differs."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _describe(name: str, result: dict) -> str:
    pins = " ".join(f"{k}={v}" for k, v in result.items()
                    if k not in ("seconds", "reference_s", "ratio"))
    return (f"{name:>26}: {result['seconds']:.4g}s ref "
            f"{result['reference_s']:.4g}s ratio {result['ratio']:.3f} {pins}")


def main(cells, baseline_path, argv=None, measure=measure) -> int:
    """Run ``cells``, gate them against ``baseline_path``; exit status."""
    parser = argparse.ArgumentParser(
        description=f"time the cells behind {pathlib.Path(baseline_path).name}")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke cells only; never writes the baseline")
    parser.add_argument("--no-write", action="store_true",
                        help="every cell; keep the committed baseline")
    parser.add_argument("--force-write", action="store_true",
                        help="write the baseline even when a gate fired")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    path = pathlib.Path(baseline_path)

    chosen = [c for c in cells if c.smoke or not args.smoke]
    measured = {}
    for cell in chosen:
        measured[cell.name] = measure(cell, cell.reps[args.smoke])
        print(_describe(cell.name, measured[cell.name]), flush=True)

    baseline = json.loads(path.read_text()) if path.exists() else None
    if baseline is None:
        print(f"no {path.name}; only same-run bounds checked")
    failures, ungated = check(chosen, measured, baseline)
    for line in failures:
        print(line)
    if ungated:
        print(f"below the noise floor, not gated: {', '.join(ungated)}")
    if not failures:
        print(f"no gate fired vs {path.name}")

    write = args.force_write or not (args.smoke or args.no_write)
    if write and failures and not args.force_write:
        # a regressed run must not erase the evidence the gate exists for
        print("baseline NOT rewritten: failures above; fix them or rerun "
              "with --force-write to accept the new numbers")
    elif write:
        path.write_text(json.dumps({"env": environment(), "commit": commit(),
                                    "cells": measured}, indent=2) + "\n")
        print(f"baseline written to {path}")
    else:
        print("baseline not rewritten")
    return 1 if failures else 0
