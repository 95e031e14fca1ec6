"""Span recording around the public functions of each layer.

The traced benchmark run wraps, from the outside, the functions each
layer of ``repro`` exposes.  Every wrapped call records one span
``(id, parent, layer, name, start, end)``; spans stay in memory and are
folded into per-layer metrics when the run ends.  Forked worker
processes (the fabric's ``worker_main``, the service's ``_worker_entry``)
inherit the wrappers, start a clean recorder, and write their spans to
``dump_dir`` when they exit.

A wrapper replaces a function under *every* name a loaded ``repro``
module binds it to, because callers look names up in their own module
(``repro.statespace.explore`` imports ``encode_state`` by name, for
example).  Methods are patched on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the traced layers (the service layer is timed on the client side)
LAYERS = ("graphs", "pricing", "games", "cache", "policy", "dynamics",
          "runner", "statespace", "store", "fabric")


class Recorder:
    """In-memory span sink of one process."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.dump_dir = dump_dir
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts clean)."""
        self.pid = os.getpid()
        #: (id, parent id or 0, layer, name, start, end)
        self.spans: List[tuple] = []
        #: (layer, what) -> tally added by the wrappers' hooks
        self.counts: Counter = Counter()
        #: (layer, what) -> list of sampled values (durations, instants)
        self.samples: Dict[Tuple[str, str], list] = defaultdict(list)
        #: traced lifetime of this process when it is a forked worker
        self.lane: Optional[Tuple[float, float]] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def payload(self) -> dict:
        """JSON-ready form of everything this process recorded."""
        return {
            "pid": self.pid,
            "spans": self.spans,
            "counts": [[k[0], k[1], v] for k, v in self.counts.items()],
            "samples": [[k[0], k[1], v] for k, v in self.samples.items()],
            "lane": self.lane,
        }

    def dump(self) -> None:
        """Write this process's spans to ``dump_dir`` (worker exit)."""
        if self.dump_dir is None:
            return
        path = Path(self.dump_dir) / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.payload()))
        os.replace(tmp, path)

    def collect(self) -> List[dict]:
        """This process's payload plus every worker dump on disk."""
        out = [self.payload()]
        if self.dump_dir is not None:
            for path in sorted(Path(self.dump_dir).glob("spans-*.json")):
                out.append(json.loads(path.read_text()))
        return out


def span_wrapper(rec: Recorder, layer: str, name: str, fn: Callable,
                 hook: Optional[Callable] = None,
                 materialize: bool = False) -> Callable:
    """Wrap ``fn`` so each call records a span under ``layer``.

    ``hook(rec, args, result, start, end)`` may add counts and samples;
    ``materialize`` drains a returned generator inside the span, so the
    span covers the work and not just the creation of the generator.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent = stack[-1] if stack else 0
        sid = next(rec._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if materialize:
                out = iter(list(out))
        finally:
            end = time.perf_counter()
            stack.pop()
            rec.spans.append((sid, parent, layer, name, start, end))
        if hook is not None:
            hook(rec, args, out, start, end)
        return out

    return wrapper


def lane_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """Wrap a forked worker's entry point: start clean, dump at exit."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.reset()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.lane = (start, time.perf_counter())
            rec.dump()

    return wrapper


# ---------------------------------------------------------------------------
# hooks: counts and samples taken at the wrapped boundaries


def _candidates(rec, args, out, start, end):
    rec.counts[("pricing", "candidates")] += len(args[2])


def _improving(rec, args, out, start, end):
    rec.counts[("games", "improving")] += bool(out.is_improving)


def _cache_hit(rec, args, out, start, end):
    rec.counts[("cache", "hits")] += out is not None


def _steps(rec, args, out, start, end):
    rec.counts[("dynamics", "steps")] += int(out.steps)


def _bytes_written(encode_line: Callable) -> Callable:
    def hook(rec, args, out, start, end):
        rec.counts[("store", "bytes_written")] += len(
            (encode_line(args[2]) + "\n").encode("utf-8"))
    return hook


def _claim(rec, args, out, start, end):
    if out is None:
        rec.samples[("fabric", "idle")].append(end - start)
    else:
        rec.samples[("fabric", "claim")].append(end - start)
        rec.samples[("fabric", "claimed_at")].append(start)


def _complete(rec, args, out, start, end):
    rec.samples[("fabric", "complete")].append(end - start)


def _drain(rec, args, out, start, end):
    rec.counts[("fabric", "reassigned")] += int(out.reassigned)
    rec.counts[("fabric", "respawned")] += int(out.respawned)
    rec.samples[("fabric", "drain_window")].append((start, end))


# ---------------------------------------------------------------------------
# installation


class Installation:
    """The wrappers one :func:`install` put in place; ``remove`` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _repro_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def patch_function(inst: Installation, fn: Callable, wrapper: Callable) -> None:
    """Rebind ``fn`` to ``wrapper`` under every module-global name."""
    bound = False
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                inst.set(module, attr, wrapper)
                bound = True
    if not bound:
        raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")


def install(rec: Recorder) -> Installation:
    """Wrap every layer's public functions; returns the undo handle."""
    # by module path: some packages re-export a function under its
    # module's name (``repro.statespace.explore`` is both)
    mod = {name: importlib.import_module(f"repro.{name}") for name in (
        "core.best_response", "core.dynamics", "core.games", "core.policies",
        "experiments.campaign", "experiments.columnar", "experiments.fabric",
        "experiments.runner", "graphs.adjacency", "graphs.bitkernel",
        "graphs.incremental", "service.jobs", "statespace.encode",
        "statespace.expand", "statespace.explore", "registry.builtin")}
    best_response, dynamics = mod["core.best_response"], mod["core.dynamics"]
    games, policies = mod["core.games"], mod["core.policies"]
    campaign, columnar = mod["experiments.campaign"], mod["experiments.columnar"]
    fabric, runner = mod["experiments.fabric"], mod["experiments.runner"]
    adjacency, bitkernel = mod["graphs.adjacency"], mod["graphs.bitkernel"]
    incremental, jobs = mod["graphs.incremental"], mod["service.jobs"]
    encode, expand = mod["statespace.encode"], mod["statespace.expand"]
    explore = mod["statespace.explore"]

    inst = Installation()

    def function(layer, module, name, hook=None, materialize=False):
        fn = getattr(module, name)
        patch_function(inst, fn, span_wrapper(rec, layer, name, fn, hook,
                                               materialize))

    def method(layer, cls, name, hook=None, materialize=False, label=None):
        fn = vars(cls)[name]
        inst.set(cls, name, span_wrapper(rec, layer, label or name, fn, hook,
                                         materialize))

    # graphs: the distance kernels
    method("graphs", incremental.IncrementalAPSP, "distances")
    for name in ("all_pairs_distances", "all_pairs_distances_fast",
                 "distances_without_vertex", "bfs_distances",
                 "bfs_distances_multi"):
        function("graphs", adjacency, name)
    for name in ("pack_rows", "unpack_rows", "bfs_distances",
                 "bfs_distances_multi", "all_pairs_distances",
                 "is_connected_without_vertex"):
        function("graphs", bitkernel, name)

    # pricing: deviation evaluation
    evaluator = best_response.DeviationEvaluator
    method("pricing", evaluator, "__init__", label="construct")
    method("pricing", evaluator, "base_vector")
    method("pricing", evaluator, "batch_costs", hook=_candidates)

    # games: best-response collection
    method("games", games.Game, "best_responses", hook=_improving)
    method("games", games.Game, "cost_vector")
    function("games", games, "_collect_best")
    function("games", games, "_collect_best_batches")

    # cache: the deviation-cache protocol of the incremental backend
    backend = incremental.IncrementalBackend
    method("cache", backend, "cached_best_response", hook=_cache_hit)
    method("cache", backend, "store_best_response")

    # policy: every move policy's own select
    todo = [policies.MovePolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select" in vars(cls):
            method("policy", cls, "select", label=f"{cls.__name__}.select")

    # dynamics and runner
    function("dynamics", dynamics, "run_dynamics", hook=_steps)
    function("runner", runner, "run_trial")
    function("runner", runner, "build_initial")

    # statespace: expansion, codec, enumeration, report
    method("statespace", expand.Expander, "expand_with_successors",
           materialize=True)
    for name in ("encode_state", "decode_state", "state_key"):
        function("statespace", encode, name)
    function("statespace", explore, "enumerate_states")
    function("statespace", explore, "build_report")

    # store: record appends, scans, compaction, status
    store_cls = campaign.CampaignStore
    method("store", store_cls, "append",
           hook=_bytes_written(campaign.encode_record_line))
    method("store", store_cls, "iter_all_records", materialize=True)
    method("store", store_cls, "completed_index")
    function("store", columnar, "compact_store")
    function("store", campaign, "campaign_status")

    # fabric: the work queue and the coordinator
    queue = fabric.WorkQueue
    method("fabric", queue, "initialize")
    method("fabric", queue, "claim", hook=_claim)
    method("fabric", queue, "heartbeat")
    method("fabric", queue, "complete", hook=_complete)
    method("fabric", queue, "reap_expired")
    method("fabric", fabric.Coordinator, "drain", hook=_drain)

    # forked workers: start clean, write spans at exit
    for module, name in ((fabric, "worker_main"), (jobs, "_worker_entry")):
        fn = getattr(module, name)
        patch_function(inst, fn, lane_wrapper(rec, fn))
    return inst


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover.

    Child intervals are merged and clipped to the parent before they
    are subtracted, so overlapping or stray children can never drive a
    self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _layer, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _parent, _layer, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no values."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(payloads: Iterable[dict], main_lane_s: float) -> Dict[str, float]:
    """Fold every process's spans into the per-layer metric set.

    ``main_lane_s`` is the traced wall time of the benchmark process;
    each forked worker adds its own traced lifetime to ``trace.lane_s``.
    A layer's share is its self time over ``trace.lane_s``.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    samples: Dict[Tuple[str, str], list] = defaultdict(list)
    inclusive: Counter = Counter()
    lane_s = main_lane_s
    self_total = 0.0
    for payload in payloads:
        spans = [tuple(s) for s in payload["spans"]]
        selfs = self_times(spans)
        for sid, _parent, layer, name, start, end in spans:
            self_s[layer] += selfs[sid]
            self_s[(layer, name)] += selfs[sid]
            calls[layer] += 1
            calls[(layer, name)] += 1
            inclusive[(layer, name)] += end - start
        self_total += sum(selfs.values())
        for layer, what, value in payload["counts"]:
            counts[(layer, what)] += value
        for layer, what, values in payload["samples"]:
            samples[(layer, what)].extend(values)
        if payload["lane"] is not None:
            start, end = payload["lane"]
            lane_s += end - start

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # first claim after each drain started: the fleet's start-up time
    claimed_at = sorted(samples[("fabric", "claimed_at")])
    fleet_starts = []
    for start, end in samples[("fabric", "drain_window")]:
        first = next((t for t in claimed_at if start <= t <= end), None)
        if first is not None:
            fleet_starts.append(first - start)

    steps = counts[("dynamics", "steps")]
    expansions = calls[("statespace", "expand_with_successors")]
    br = calls[("games", "best_responses")]
    lookups = calls[("cache", "cached_best_response")]
    m: Dict[str, float] = {
        "graphs.calls": calls["graphs"],
        "graphs.self_s": self_s["graphs"],
        "graphs.us_per_call": ratio(self_s["graphs"], calls["graphs"]) * 1e6,
        "pricing.calls": calls["pricing"],
        "pricing.candidates": counts[("pricing", "candidates")],
        "pricing.self_s": self_s["pricing"],
        "games.br_evals": br,
        "games.evals_per_step": ratio(br, steps),
        "games.improving_frac": ratio(counts[("games", "improving")], br),
        "games.self_s": self_s["games"],
        "cache.lookups": lookups,
        "cache.hit_frac": ratio(counts[("cache", "hits")], lookups),
        "cache.self_s": self_s["cache"],
        "policy.selects": calls["policy"],
        "policy.self_s": self_s["policy"],
        "dynamics.steps": steps,
        "dynamics.self_s": self_s["dynamics"],
        "runner.trials": calls[("runner", "run_trial")],
        "runner.build_s": inclusive[("runner", "build_initial")],
        "runner.self_s": self_s["runner"],
        "statespace.expansions": expansions,
        "statespace.expand_self_s": self_s[("statespace", "expand_with_successors")],
        "statespace.codec_self_s": sum(
            self_s[("statespace", n)]
            for n in ("encode_state", "decode_state", "state_key")),
        "statespace.enumerate_s": inclusive[("statespace", "enumerate_states")],
        "statespace.report_s": inclusive[("statespace", "build_report")],
        "statespace.graph_calls_per_state": ratio(calls["graphs"], expansions),
        "store.appends": calls[("store", "append")],
        "store.bytes_written": counts[("store", "bytes_written")],
        "store.append_self_s": self_s[("store", "append")],
        "store.scan_s": (inclusive[("store", "iter_all_records")]
                         + inclusive[("store", "completed_index")]),
        "store.compact_s": inclusive[("store", "compact_store")],
        "store.status_s": inclusive[("store", "campaign_status")],
        "fabric.units": calls[("fabric", "complete")],
        "fabric.claim_s_p50": percentile(samples[("fabric", "claim")], 50),
        "fabric.claim_s_p90": percentile(samples[("fabric", "claim")], 90),
        "fabric.complete_s_p50": percentile(samples[("fabric", "complete")], 50),
        "fabric.idle_s": sum(samples[("fabric", "idle")]),
        "fabric.fleet_start_s": percentile(fleet_starts, 50),
        "fabric.reassigned": counts[("fabric", "reassigned")],
        "fabric.respawned": counts[("fabric", "respawned")],
        "fabric.self_s": self_s["fabric"],
        "trace.lane_s": lane_s,
        "trace.self_sum_s": self_total,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(self_s[layer], lane_s)
    return m
