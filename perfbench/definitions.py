"""What the benchmark reports: metric names, units, bounds, run length.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/summary.py --benchmark-json``); the benchmark's
own tests check that the two agree.
"""

from __future__ import annotations

from typing import Dict

from workloads import WORKLOADS

#: seconds one run measures
RUN_SECONDS = 16

#: end-to-end metrics, reported by every untraced run:
#: name -> (unit, better, bound)
#:
#: The time bounds are wide because CPU speed drifts on shared virtual
#: machines: on the 2-vCPU Xeon VM of the first baseline a fixed
#: pure-Python loop varied by 16% from one 25 ms sample to the next, by
#: 4% between 10 s blocks, and whole minutes ran 1.5x slower.
END_TO_END: Dict[str, tuple] = {
    # trials completed (census: states explored) per timed wall second,
    # the median over repetitions
    "work_per_s": ("1/s", "higher", 0.25),
    # median wall time of one operation: a figure slice, a census, a
    # drained campaign, or one service job from submit to end of stream
    "op_s_p50": ("s", "lower", 0.25),
    # 90th percentile of the same samples
    "op_s_p90": ("s", "lower", 0.25),
    # process start to the first timed operation, median of 5 processes
    "setup_s": ("s", "lower", 0.25),
    # peak resident memory of the process plus its largest child
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: per-layer metrics, reported by every traced run: name -> unit.
#: ``*.self_s`` is span time minus child-span time; ``*.share`` is
#: self time over ``trace.lane_s`` (the traced wall time of the
#: benchmark process plus each forked worker's traced lifetime).
PER_LAYER: Dict[str, str] = {
    "graphs.calls": "count",
    "graphs.self_s": "s",
    "graphs.share": "ratio",
    "graphs.us_per_call": "us",
    "pricing.calls": "count",
    "pricing.candidates": "count",
    "pricing.self_s": "s",
    "pricing.share": "ratio",
    "games.br_evals": "count",
    "games.evals_per_step": "ratio",
    "games.improving_frac": "ratio",
    "games.self_s": "s",
    "games.share": "ratio",
    "cache.lookups": "count",
    "cache.hit_frac": "ratio",
    "cache.self_s": "s",
    "cache.share": "ratio",
    "policy.selects": "count",
    "policy.self_s": "s",
    "policy.share": "ratio",
    "dynamics.steps": "count",
    "dynamics.self_s": "s",
    "dynamics.share": "ratio",
    "runner.trials": "count",
    "runner.build_s": "s",
    "runner.self_s": "s",
    "runner.share": "ratio",
    "statespace.expansions": "count",
    "statespace.expand_self_s": "s",
    "statespace.codec_self_s": "s",
    "statespace.enumerate_s": "s",
    "statespace.report_s": "s",
    "statespace.graph_calls_per_state": "ratio",
    "statespace.share": "ratio",
    "store.appends": "count",
    "store.bytes_written": "bytes",
    "store.append_self_s": "s",
    "store.scan_s": "s",
    "store.compact_s": "s",
    "store.status_s": "s",
    "store.share": "ratio",
    "fabric.units": "count",
    "fabric.claim_s_p50": "s",
    "fabric.claim_s_p90": "s",
    "fabric.complete_s_p50": "s",
    "fabric.idle_s": "s",
    "fabric.fleet_start_s": "s",
    "fabric.reassigned": "count",
    "fabric.respawned": "count",
    # includes the coordinator's wait for its fleet inside drain()
    "fabric.self_s": "s",
    "fabric.share": "ratio",
    "service.jobs": "count",
    "service.submit_s_p50": "s",
    "service.first_record_s_p50": "s",
    "service.stream_s_p50": "s",
    "service.rejected": "count",
    "service.requeues": "count",
    "trace.overhead_pct": "%",
    "trace.wall_s": "s",
    "trace.lane_s": "s",
    "trace.self_sum_s": "s",
}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER.items()
        ],
    }


def _better(name: str) -> str:
    """Direction of a per-layer metric: the same work done with fewer
    calls, bytes and seconds is better; useful-outcome ratios go up."""
    return "higher" if name.endswith(("hit_frac", "improving_frac")) else "lower"
