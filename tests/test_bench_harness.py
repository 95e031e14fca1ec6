"""The bench harness's gate and baseline rules, on injected timings.

No benchmark runs here: ``harness.main`` takes the measuring function
as a parameter, and these tests hand it fixed results.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

HARNESS_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "harness.py"
_spec = importlib.util.spec_from_file_location("bench_harness", HARNESS_PATH)
harness = sys.modules["bench_harness"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def _noop(tmp, clock):
    return None


def _cell(name, **kwargs):
    return harness.Cell(name, _noop, _noop, smoke=True, **kwargs)


def _result(seconds, ratio):
    return {"seconds": seconds, "reference_s": round(seconds / ratio, 6),
            "ratio": ratio, "states": 7}


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps({
        "env": {}, "commit": "abc",
        "cells": {"slow": _result(0.5, 2.0), "tiny": _result(0.05, 2.0)},
    }))
    return path


def _run(path, measured, *argv, cells=None):
    cells = cells or [_cell(name) for name in measured]
    return harness.main(cells, path, list(argv),
                        measure=lambda cell, reps: measured[cell.name])


def test_ratio_over_the_factor_fails(baseline, capsys):
    assert _run(baseline, {"slow": _result(0.65, 2.6)}, "--smoke") == 1
    assert "REGRESSION slow: ratio 2.0 -> 2.6" in capsys.readouterr().out


def test_ratio_within_the_factor_passes(baseline):
    assert _run(baseline, {"slow": _result(0.55, 2.2)}, "--smoke") == 0


def test_cell_below_the_floor_is_reported_not_gated(baseline, capsys):
    assert _run(baseline, {"tiny": _result(0.09, 4.0)}, "--smoke") == 0
    assert "not gated: tiny" in capsys.readouterr().out


def test_cell_floor_zero_gates_a_tiny_cell(baseline, capsys):
    cells = [_cell("tiny", floor=0.0)]
    assert _run(baseline, {"tiny": _result(0.09, 4.0)}, "--smoke",
                cells=cells) == 1
    assert "REGRESSION tiny: ratio 2.0 -> 4.0" in capsys.readouterr().out


def test_same_run_bound_holds_below_the_floor(baseline, capsys):
    cells = [_cell("tiny", bound=1.02)]
    assert _run(baseline, {"tiny": _result(0.05, 2.1)}, "--smoke",
                cells=cells) == 1
    assert "BOUND tiny: ratio 2.1 > 1.02" in capsys.readouterr().out


def test_same_run_bound_needs_no_baseline(tmp_path, capsys):
    cells = [_cell("off", bound=1.02)]
    assert _run(tmp_path / "none.json", {"off": _result(0.3, 1.05)},
                "--smoke", cells=cells) == 1
    assert "BOUND off: ratio 1.05 > 1.02" in capsys.readouterr().out
    assert _run(tmp_path / "none.json", {"off": _result(0.3, 1.01)},
                "--smoke", cells=cells) == 0


def test_failing_run_keeps_the_baseline_unless_forced(baseline):
    before = baseline.read_text()
    assert _run(baseline, {"slow": _result(0.65, 2.6)}) == 1
    assert baseline.read_text() == before
    assert _run(baseline, {"slow": _result(0.65, 2.6)}, "--force-write") == 1
    assert json.loads(baseline.read_text())["cells"]["slow"]["ratio"] == 2.6


def test_smoke_and_no_write_runs_keep_the_baseline(baseline):
    before = baseline.read_text()
    assert _run(baseline, {"slow": _result(0.5, 2.0)}, "--smoke") == 0
    assert _run(baseline, {"slow": _result(0.5, 2.0)}, "--no-write") == 0
    assert baseline.read_text() == before


def test_smoke_runs_only_smoke_cells(baseline):
    cells = [_cell("slow"), harness.Cell("full-only", _noop, _noop)]
    seen = []

    def measure(cell, reps):
        seen.append(cell.name)
        return _result(0.5, 2.0)

    assert harness.main(cells, baseline, ["--smoke"], measure=measure) == 0
    assert seen == ["slow"]


def test_written_baseline_carries_env_and_commit(tmp_path):
    path = tmp_path / "BENCH_new.json"
    assert _run(path, {"slow": _result(0.5, 2.0)}) == 0
    written = json.loads(path.read_text())
    assert set(written["env"]) == {"machine", "cpu_count", "python", "numpy"}
    assert written["commit"]
    assert written["cells"] == {"slow": _result(0.5, 2.0)}


def test_clock_times_only_the_marked_region():
    def work(tmp, clock):
        assert tmp.is_dir()
        with clock:
            pass
        return {"ok": True}

    seconds, pins = harness.time_once(work)
    assert pins == {"ok": True} and 0.0 <= seconds < 0.05


BENCH_SCRIPTS = ["kernel", "statespace", "fabric", "service", "obs"]


@pytest.mark.parametrize("name", BENCH_SCRIPTS)
def test_default_floor_cells_sit_clear_of_the_floor(name, monkeypatch):
    """A cell left on the default floor must sit at least 2x above or
    below it in the committed baseline, so a regeneration on a somewhat
    faster or slower host cannot move it in or out of the gate; a cell
    nearer the floor sets its own (0 or inf) in its definition."""
    bench_dir = HARNESS_PATH.parent
    monkeypatch.syspath_prepend(str(bench_dir))
    monkeypatch.setitem(sys.modules, "harness", harness)
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", bench_dir / f"bench_{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = json.loads(
        (bench_dir.parent / f"BENCH_{name}.json").read_text())["cells"]
    floor = harness.MIN_GATE_SECONDS
    for cell in module.CELLS:
        assert cell.name in committed, cell.name
        if cell.floor == floor:
            old = committed[cell.name]
            scale = max(old["seconds"], old["reference_s"])
            assert not floor / 2 < scale < floor * 2, (cell.name, scale)
