"""The benchmark's own tests.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from definitions import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench-work" / f"selftest-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- self-time arithmetic ------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        # id, parent, layer, name, start, end
        (1, 0, "runner", "outer", 0.0, 10.0),
        (2, 1, "games", "mid", 1.0, 6.0),
        (3, 2, "graphs", "leaf", 2.0, 3.0),
        (4, 2, "graphs", "leaf", 4.0, 5.5),
        (5, 1, "graphs", "leaf", 7.0, 8.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(5.0 - 1.0 - 1.5)
    assert selfs[3] == pytest.approx(1.0)
    # a root's subtree self times add up to the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_clip_overlapping_and_stray_children():
    spans = [
        (1, 0, "a", "x", 0.0, 4.0),
        (2, 1, "b", "y", 1.0, 3.0),
        (3, 1, "b", "y", 2.0, 5.0),  # overlaps its sibling, outlives the parent
    ]
    assert tracer.self_times(spans)[1] == pytest.approx(1.0)


def test_nested_wrappers_record_the_call_tree():
    rec = tracer.Recorder()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tracer.span_wrapper(rec, "graphs", "leaf", leaf)

    def outer():
        time.sleep(0.02)
        wrapped_leaf()
        wrapped_leaf()

    tracer.span_wrapper(rec, "games", "outer", outer)()
    # spans close leaf-first; both leaves hang off the outer span (id 1)
    assert [(s[0], s[1], s[2]) for s in rec.spans] == [
        (2, 1, "graphs"), (3, 1, "graphs"), (1, 0, "games")]
    metrics = tracer.layer_metrics([rec.payload()], main_lane_s=1.0)
    assert metrics["graphs.calls"] == 2
    assert metrics["graphs.self_s"] == pytest.approx(0.04, abs=0.015)
    assert metrics["games.self_s"] == pytest.approx(0.02, abs=0.015)
    assert metrics["trace.self_sum_s"] <= metrics["trace.lane_s"]


def test_install_covers_every_name_and_uninstalls():
    import importlib

    # by path: the package re-exports the function ``explore`` under the
    # module's name
    explore_mod = importlib.import_module("repro.statespace.explore")
    encode = importlib.import_module("repro.statespace.encode")

    original = encode.encode_state
    installed = tracer.install(tracer.Recorder())
    try:
        # the explorer looks the codec up in its own namespace
        assert explore_mod.encode_state is encode.encode_state
        assert encode.encode_state is not original
    finally:
        installed.remove()
    assert encode.encode_state is original
    assert explore_mod.encode_state is original


# -- names ---------------------------------------------------------------------


def test_every_name_is_well_formed_and_unique():
    names = (list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER))
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for workload in WORKLOADS.values():
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_benchmark_json_matches_the_definitions():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_json()


def test_setup_has_the_largest_bound():
    bounds = {name: spec[2] for name, spec in END_TO_END.items()}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- output checks reject tampered results ---------------------------------------


def _one_result(name, workdir):
    workload = WORKLOADS[name]
    inputs = workload.inputs(3, "toy")
    ctx = workload.setup(inputs, workdir)
    try:
        rep_inputs = workload.rep_inputs(inputs, 0)
        result = workload.operation(ctx, rep_inputs, workdir, "0")
    finally:
        workload.teardown(ctx)
    workload.check(rep_inputs, result, workdir)  # the untampered result passes
    return workload, rep_inputs, result


def _tampered(result, **changes):
    return replace(result, output={**result.output, **changes})


def test_fig11_check_rejects_tampering(workdir):
    workload, inputs, result = _one_result("fig11-n100", workdir)
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, non_converged=1), workdir)
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, trials=7), workdir)
    assert workload.pins(_tampered(result, steps=result.output["steps"] + 1)) \
        != workload.pins(result)


def test_census_check_rejects_tampering(workdir):
    workload, inputs, result = _one_result("census-sg5", workdir)
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, complete=False), workdir)
    report, game = result.artifact
    report.equilibria = report.equilibria[1:]  # drop one sink
    with pytest.raises(CheckFailed):
        workload.check(inputs, result, workdir)


def test_drain_check_rejects_tampering(workdir):
    workload, inputs, result = _one_result("drain-fig7", workdir)
    aggregate = result.output["aggregate"].replace('"trials": 2', '"trials": 3', 1)
    assert aggregate != result.output["aggregate"]
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, aggregate=aggregate), workdir)
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, units_failed=1), workdir)


def test_service_check_rejects_tampering(workdir):
    workload, inputs, result = _one_result("service-jobs", workdir)
    jobs = json.loads(json.dumps(result.output["jobs"]))
    jobs[0]["records"][0] = jobs[0]["records"][0].replace('"steps"', '"steps" ', 1)
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, jobs=jobs), workdir)
    jobs = json.loads(json.dumps(result.output["jobs"]))
    jobs[-1]["state"] = "failed"
    with pytest.raises(CheckFailed):
        workload.check(inputs, _tampered(result, jobs=jobs), workdir)


# -- end to end --------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_pass(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == list(expected)
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert {"nproc", "cpu", "python", "numpy", "commit", "dirty", "seed",
            "traced"} <= set(provenance)
    assert not (ROOT / ".perfbench-work").exists() or not any(
        p.name.startswith("run-") for p in (ROOT / ".perfbench-work").iterdir())


def test_without_the_program_it_fails_without_a_result(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run("--workload", "census-sg5", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
