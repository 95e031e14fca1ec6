"""Observability overhead benchmarks: the cost of leaving telemetry in.

The obs meters and spans are permanently compiled into the dynamics
engine, the distance backends and the explorer, so the price of the
instrumentation *is* a kernel number.  This bench pins it from two
angles, each cell timed against a same-run reference by
``benchmarks/harness.py``:

1. **micro** — per-operation cost of the hot-path handles (counter
   ``inc``, labelled ``inc``, histogram ``observe``, disabled ``inc``,
   no-op span, active span) against a bare dict update.  The disabled
   ``inc`` is gated, on the median of many interleaved pairs as the
   kernel micros are: it is where a disabled handle doing enabled-mode
   work shows (about 0.45 of a dict update when off, about 1 when on),
   while the trajectories cannot see it — enabled telemetry itself
   costs them under 2%.  The other micros are reported, not gated;
2. **trajectory** — the n = 30 and n = 120 dynamics cells of
   ``bench_kernel.py`` with the meter disabled, enabled, and
   enabled + traced, each against the same trajectory with every obs
   handle method stubbed to a bare ``return``.  Every variant must
   replay the *identical* trajectory (telemetry must never perturb the
   simulation).  The n = 120 cells are gated, and their disabled cells
   carry a same-run bound of 1.02: "telemetry is free when off"
   (<= 2%) is an enforced invariant.

Run it standalone (``python benchmarks/bench_obs.py
[--smoke|--no-write|--force-write]``) to diff against ``BENCH_obs.json``.
"""

import contextlib
import math
import sys

import pytest

import harness
from bench_kernel import TRAJECTORY_SEED, _trajectory_setup
from repro.core.dynamics import run_dynamics
from repro.core.policies import MaxCostPolicy
from repro.obs import metrics as M
from repro.obs import tracing as T

MICRO_N = 200_000

#: every method an instrumented seam calls on a meter or handle
_HANDLE_METHODS = [(M._CounterHandle, "inc"), (M._GaugeHandle, "set"),
                   (M._GaugeHandle, "set_max"), (M._HistogramHandle, "observe"),
                   (M.Counter, "inc"), (M.Gauge, "set"), (M.Histogram, "observe")]


def _bare(*args, **kwargs):
    return


@contextlib.contextmanager
def stubbed_obs():
    """Every obs handle method a bare ``return``, every span the no-op."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name in _HANDLE_METHODS]
    span = T.span
    try:
        for cls, name, _ in saved:
            setattr(cls, name, _bare)
        T.span = lambda name, **attrs: T._NOOP
        yield
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)
        T.span = span


# ---------------------------------------------------------------------------
# micro: per-op handle cost
# ---------------------------------------------------------------------------

def _loop(call):
    def work(tmp, clock):
        for _ in range(MICRO_N):
            call()
    return work


def _dict_update(d={}):
    d["x"] = d.get("x", 0.0) + 1


def _span():
    with T.span("bench.noop"):
        pass


def _traced_spans(tmp, clock):
    T.configure(tmp / "trace.jsonl")
    try:
        with clock:
            for _ in range(MICRO_N // 50):
                _span()
    finally:
        T.configure(None)


_meter = M.Meter(enabled=True)
MICROS = {
    "counter-inc": _loop(_meter.counter("bench_plain_total", "").labels().inc),
    "labelled-inc": _loop(_meter.counter("bench_labelled_total", "", ("tier",))
                          .labels(tier="hot").inc),
    "histogram-observe": _loop(lambda h=_meter.histogram("bench_seconds", "")
                               .labels(): h.observe(0.017)),
    "disabled-inc": _loop(M.Meter(enabled=False).counter("bench_off_total", "")
                          .labels().inc),
    "span-noop": _loop(_span),
    "span-active": _traced_spans,
}


# ---------------------------------------------------------------------------
# trajectory: disabled / enabled / traced / stubbed, all identical
# ---------------------------------------------------------------------------

def replay(game_kind: str, n: int, variant: str, seen: dict, tmp, clock) -> dict:
    """One trajectory with the meter in ``variant`` mode (``disabled``,
    ``enabled``, ``traced`` or ``stubbed``); its final state must equal
    that of the first replay recorded in ``seen``."""
    game, net, max_steps = _trajectory_setup(game_kind, n)
    was_enabled = M.DEFAULT.enabled
    M.DEFAULT.enabled = variant in ("enabled", "traced")
    if variant == "traced":
        T.configure(tmp / "trace.jsonl")
    try:
        with stubbed_obs() if variant == "stubbed" else contextlib.nullcontext():
            with clock:
                result = run_dynamics(game, net, MaxCostPolicy(),
                                      seed=TRAJECTORY_SEED, max_steps=max_steps)
    finally:
        M.DEFAULT.enabled = was_enabled
        T.configure(None)
    key = result.final.state_key()
    assert seen.setdefault("first", key) == key, (
        f"{game_kind} n={n}: {variant} perturbed the run")
    return {"steps": result.steps}


def trajectory_cell(game_kind: str, n: int, variant: str) -> harness.Cell:
    seen = {}
    gated = n >= 120
    bounded = gated and variant == "disabled"
    return harness.Cell(
        f"{game_kind}-n{n}-{variant}",
        lambda tmp, clock: replay(game_kind, n, variant, seen, tmp, clock),
        lambda tmp, clock: replay(game_kind, n, "stubbed", seen, tmp, clock),
        # single runs swing by half on a shared 2-vCPU host; the median
        # of 21 pairs still strays 3%, of 61 pairs about 1%
        smoke=n == 30, reps=((61 if bounded else 21), 7) if gated else (9, 7),
        floor=0.0 if gated else math.inf,
        bound=1.02 if bounded else None)


def micro_cell(name: str, work) -> harness.Cell:
    if name == "disabled-inc":
        return harness.Cell(name, work, _loop(_dict_update), smoke=True,
                            reps=(100, 50), floor=0.0)
    return harness.Cell(name, work, _loop(_dict_update), floor=math.inf)


CELLS = [micro_cell(name, work) for name, work in MICROS.items()] + [
    trajectory_cell(game_kind, n, variant)
    for game_kind in ("asg", "gbg")
    for n in (30, 120)
    for variant in ("disabled", "enabled", "traced")
]


@pytest.mark.parametrize("game_kind", ["asg", "gbg"])
def test_telemetry_never_perturbs_the_trajectory(game_kind):
    """Meter off/on/traced/stubbed replay the identical n=30 trajectory."""
    seen = {}
    for variant in ("disabled", "enabled", "traced", "stubbed"):
        pins = harness.time_once(
            lambda tmp, clock: replay(game_kind, 30, variant, seen, tmp, clock))[1]
        assert pins["steps"] > 0


def test_disabled_handles_record_nothing():
    """Force-disabled meter: the hot path leaves no residue at all."""
    meter = M.Meter(enabled=False)
    counter = meter.counter("bench_none_total", "").labels()
    hist = meter.histogram("bench_none_seconds", "").labels()
    for _ in range(100):
        counter.inc()
        hist.observe(1.0)
    snap = meter.snapshot()
    assert snap["bench_none_total"]["values"] == {}
    assert snap["bench_none_seconds"]["values"] == {}


if __name__ == "__main__":
    sys.exit(harness.main(CELLS, harness.REPO_ROOT / "BENCH_obs.json"))
