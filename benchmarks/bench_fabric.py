"""Fabric benchmarks: work-queue throughput, drain overhead, compaction.

Each cell is timed against a reference that shares no fabric code — a
stdlib loop doing the same file I/O, or for the drain the serial
campaign it must reproduce — and gated on that ratio by
``benchmarks/harness.py``; run it standalone (``python
benchmarks/bench_fabric.py [--smoke|--no-write|--force-write]``) to
diff against ``BENCH_fabric.json``.

Every timed cell is also *verified*: queue counts, drained aggregates
(byte-identical to a serial run), and compacted row counts are pinned,
so a perf "win" from dropping work can never pass.
"""

import json
import os
import sys

import harness
from repro.experiments.asg_budget import figure7_spec
from repro.experiments.campaign import (
    CampaignStore,
    aggregate_payload,
    run_campaign,
)
from repro.experiments.columnar import ColumnarStore, compact_store
from repro.experiments.fabric import WorkQueue, drain_campaign

QUEUE_UNITS = 1000
SYNTH_ROWS = 20_000
SYNTH_CELLS = 8
CHUNK_ROWS = 4096


def bench_queue(root, clock) -> dict:
    """Initialize, claim, heartbeat, and complete QUEUE_UNITS units."""
    queue = WorkQueue(root)
    units = [{"id": f"u{i:05d}"} for i in range(QUEUE_UNITS)]
    with clock:
        enqueued = queue.initialize(units)
        completed = 0
        while (lease := queue.claim("w0")) is not None:
            queue.heartbeat(lease)
            queue.complete(lease, {"ok": True})
            completed += 1
    assert enqueued == completed == QUEUE_UNITS, (enqueued, completed)
    assert queue.drained() and queue.counts()["done"] == QUEUE_UNITS
    return {"units": completed}


def _atomic_write(path, text):
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def stdlib_queue(root, clock) -> None:
    """The same file transitions per unit as the queue, as a bare loop:
    enqueue, read, rename to leased, stamp, heartbeat, done, unlink."""
    dirs = {d: root / d for d in ("pending", "leased", "done")}
    for d in dirs.values():
        d.mkdir()
    for i in range(QUEUE_UNITS):
        _atomic_write(dirs["pending"] / f"u{i:05d}.json",
                      json.dumps({"id": f"u{i:05d}", "retries": 0}))
    for path in sorted(dirs["pending"].glob("*.json")):
        unit = json.loads(path.read_text())
        leased = dirs["leased"] / path.name
        os.rename(path, leased)
        for beat in (0, 1):
            _atomic_write(leased, json.dumps({**unit, "owner": "w0", "beat": beat}))
        _atomic_write(dirs["done"] / path.name,
                      json.dumps({**unit, "result": {"ok": True}}))
        leased.unlink()


def _same_aggregate(result, seen: dict) -> None:
    got = json.dumps(aggregate_payload(result), sort_keys=True)
    assert seen.setdefault("first", got) == got, (
        "drained aggregate diverged from the serial run")


def drain_cell() -> harness.Cell:
    """Drain a small fig7 slice with 2 workers against the serial run;
    pins their aggregates byte-identical."""
    seen = {}

    def drain(root, clock) -> dict:
        report = drain_campaign(figure7_spec(), root / "fab", trials=4,
                                n_values=(10,), workers=2, lease_ttl=10.0,
                                unit_trials=2)
        assert report.complete and report.units_failed == 0
        _same_aggregate(report.result, seen)
        return {"units": report.units_done}

    def serial(root, clock) -> None:
        _same_aggregate(run_campaign(figure7_spec(), root / "serial", trials=4,
                                     n_values=(10,), n_jobs=1).result, seen)

    return harness.Cell("drain-fig7-2w", drain, serial, floor=0.0)


def _synthetic_store(root) -> CampaignStore:
    """SYNTH_ROWS records across SYNTH_CELLS cells, written as JSONL."""
    store = CampaignStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    trials_per_cell = SYNTH_ROWS // SYNTH_CELLS
    (store.root / "manifest.json").write_text(json.dumps({
        "version": 1, "figure": "bench", "trials": trials_per_cell,
        "cells": [{"key": f"c{c}", "series": f"s{c}", "n": 10}
                  for c in range(SYNTH_CELLS)],
    }))
    with store.open_tagged_writer("bench") as fh:
        for i in range(SYNTH_ROWS):
            store.append(fh, {
                "cell": f"c{i % SYNTH_CELLS}",
                "trial": i // SYNTH_CELLS,
                "steps": i % 50,
                "status": "converged" if i % 7 else "capped",
            })
    return store


def _jsonl_rows(store):
    for path in sorted(store.root.glob("trials-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                row.pop("_crc")
                yield row


def bench_compact(root, clock) -> dict:
    """Compact SYNTH_ROWS rows into the pure-python chunk layout."""
    store = _synthetic_store(root)
    with clock:
        summary = compact_store(store)
    assert summary["rows"] == SYNTH_ROWS, summary["rows"]
    counts = ColumnarStore(root).cells_done(SYNTH_ROWS // SYNTH_CELLS)
    assert counts is not None
    assert sum(counts.values()) == SYNTH_ROWS
    return {"rows": summary["rows"]}


def stdlib_compact(root, clock) -> None:
    """Parse the same JSONL and write it back as column chunks."""
    store = _synthetic_store(root)
    out = root / "chunks"
    out.mkdir()
    with clock:
        rows = list(_jsonl_rows(store))
        for k in range(0, len(rows), CHUNK_ROWS):
            chunk = rows[k:k + CHUNK_ROWS]
            columns = {name: [row[name] for row in chunk] for name in chunk[0]}
            _atomic_write(out / f"chunk-{k}.json",
                          json.dumps(columns, separators=(",", ":")))


def bench_columnar_scan(root, clock) -> dict:
    """Stream every compacted row back out (the aggregate read path)."""
    compact_store(_synthetic_store(root), prune=True)
    with clock:
        rows = sum(1 for _ in ColumnarStore(root).iter_rows())
    assert rows == SYNTH_ROWS, rows
    return {"rows": rows}


def stdlib_scan(root, clock) -> None:
    """Stream the same rows out of the uncompacted JSONL."""
    store = _synthetic_store(root)
    with clock:
        sum(1 for _ in _jsonl_rows(store))


CELLS = [
    harness.Cell("queue-1k-units", bench_queue, stdlib_queue, smoke=True),
    drain_cell(),
    harness.Cell("compact-20k-rows", bench_compact, stdlib_compact, smoke=True,
                 floor=0.0),
    harness.Cell("columnar-scan-20k", bench_columnar_scan, stdlib_scan),
]


def test_bench_cells_verify():
    """Every cell's identity pins hold (timings ignored)."""
    for cell in CELLS:
        harness.time_once(cell.run)
        harness.time_once(cell.reference)


if __name__ == "__main__":
    sys.exit(harness.main(CELLS, harness.REPO_ROOT / "BENCH_fabric.json"))
