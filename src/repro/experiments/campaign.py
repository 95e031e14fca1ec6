"""Durable, resumable experiment campaigns.

A *campaign* is a figure grid (:class:`FigureSpec`) executed against a
persistent on-disk store instead of fire-and-forget.  The store records
every completed ``(cell, trial)`` outcome, so

* **resume**: re-running a killed or partial campaign executes only the
  missing trials — completed ones are never recomputed;
* **one scheduler**: :func:`run_campaign` plans through the fabric's
  :class:`~repro.experiments.fabric.CampaignSource`, as ``repro drain``
  and the service do, and runs the units in-process or with a fleet;
* **merge**: aggregates are always computed from the full record set,
  sorted by ``(cell, trial)``, so they are *byte-identical* no matter
  how the work was scheduled, interrupted, or drained.

Those properties rest on the runner's seeding discipline (see
:func:`repro.experiments.runner.trial_jobs`): a trial's outcome is a
pure function of ``(config, n, campaign seed, trial index)``.

Store layout (one directory per campaign)::

    <root>/
      manifest.json         # the campaign's identity: spec grid, seed,
                            # trials, cell keys — validated on resume
      trials-<tag>.jsonl    # one JSON line per completed trial,
                            # append-only (kill-safe: a torn final line
                            # is ignored on load); tag 0of1 when serial,
                            # w<slot>.<seq> per fleet worker
      fabric/               # a parallel run's work queue

``python -m repro campaign`` is the CLI front end (``--resume``,
``--max-trials``, ``--jobs``, ``--status``).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.stats import ConvergenceStats
from ..testing.faults import resolve_fs
from ..registry.scenario import ScenarioSpec
from .config import FigureSpec
from .runner import FigureResult, TrialRecord, resolve_n_jobs

__all__ = [
    "CampaignMismatch",
    "CampaignStore",
    "CampaignRun",
    "cell_key",
    "run_campaign",
    "campaign_status",
    "aggregate_records",
    "aggregate_payload",
    "metric_payloads",
    "encode_record_line",
    "decode_record_line",
    "whole_lines_after",
    "CRC_KEY",
]

STORE_VERSION = 1

#: JSON key carrying the per-line CRC32 checksum (sorts before every
#: record key, so checksummed lines visibly lead with their check).
CRC_KEY = "_crc"

#: quarantine directory name for damaged lines (see :meth:`CampaignStore.fsck`).
CORRUPT_DIRNAME = "corrupt"


def _record_crc(record: dict) -> str:
    """CRC32 (hex) of the record's canonical JSON body, ``_crc`` excluded."""
    body = json.dumps(record, sort_keys=True)
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"


def encode_record_line(record: dict) -> str:
    """One store line: the record plus its CRC32, canonical JSON, no newline.

    The checksum covers the canonical (sorted-keys) serialization of
    the record *without* the ``_crc`` key, so any reader can strip the
    key, re-serialize, and verify.
    """
    return json.dumps({CRC_KEY: _record_crc(record), **record}, sort_keys=True)


def decode_record_line(line: str):
    """``(record, reason)`` for one raw store line.

    ``record`` is the parsed dict with ``_crc`` stripped, or ``None``
    when the line is damaged; ``reason`` is ``None`` for good lines,
    else ``"unparsable"`` (torn/garbage JSON) or ``"checksum"`` (parses
    but the stored CRC disagrees with the body — single-bit rot, a
    spliced line, or a hand-edit).  Lines written before the checksum
    era carry no ``_crc`` and are accepted as-is: the format is
    backward compatible, and ``repro fsck`` reports only provable
    damage.
    """
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None, "unparsable"
    if not isinstance(rec, dict):
        return None, "unparsable"
    if CRC_KEY in rec:
        stored = rec.pop(CRC_KEY)
        if stored != _record_crc(rec):
            return None, "checksum"
    return rec, None


def whole_lines_after(path, offset: int) -> Tuple[List[str], int]:
    """The newline-ended lines of ``path`` past byte ``offset``, and the
    offset just past them."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    whole = data[:data.rfind(b"\n") + 1]
    return whole.decode("utf-8", "replace").split("\n")[:-1], offset + len(whole)


class CampaignMismatch(RuntimeError):
    """The directory holds a different campaign than the one requested."""


def cell_key(cfg: ScenarioSpec, n: int) -> str:
    """Stable identifier of one (scenario, n) cell.

    Built from the digest that seeds the trials
    (:meth:`~repro.registry.ScenarioSpec.digest`), so two cells share a
    key iff they draw identical trial sequences.
    """
    return f"{cfg.digest():08x}-n{n}"


@dataclass(frozen=True)
class _CellPlan:
    key: str
    series: str
    cfg: ScenarioSpec
    n: int


def _plan_cells(spec: FigureSpec, n_values: Sequence[int]) -> List[_CellPlan]:
    plans = []
    for cfg in spec.configs:
        for n in n_values:
            plans.append(_CellPlan(cell_key(cfg, n), cfg.series_name(), cfg, n))
    return plans


def _manifest_for(
    spec: FigureSpec,
    seed: int,
    trials: int,
    n_values: Sequence[int],
    max_steps_factor: int,
    cells: Sequence[_CellPlan],
) -> dict:
    return {
        "version": STORE_VERSION,
        "figure": spec.figure,
        "title": spec.title,
        "seed": seed,
        "trials": trials,
        "n_values": list(n_values),
        "max_steps_factor": max_steps_factor,
        "cells": [
            {"key": c.key, "series": c.series, "n": c.n, "cfg": c.cfg.canonical()}
            for c in cells
        ],
    }


class CampaignStore:
    """Append-only JSONL record store of one campaign directory.

    The storage discipline — a validated ``manifest.json`` identity plus
    append-only ``<prefix>-<tag>.jsonl`` record files with
    torn-line kill-safety — is format, not campaign logic; subclasses
    (the statespace exploration store) reuse it by overriding
    :attr:`RECORD_PREFIX` / :attr:`REQUIRED_KEYS` / :attr:`KIND`.
    """

    MANIFEST = "manifest.json"
    #: record-file basename prefix (``<prefix>-<tag>.jsonl``).
    RECORD_PREFIX = "trials"
    #: keys a well-formed record line must carry; others are skipped.
    REQUIRED_KEYS = frozenset({"cell", "trial", "steps", "status"})
    #: human name used in mismatch errors.
    KIND = "campaign"

    def __init__(self, root, fs=None) -> None:
        self.root = Path(root)
        #: filesystem seam — production passes nothing and gets the real
        #: one; the chaos suite injects a :class:`~repro.testing.faults.FaultyFS`.
        self.fs = resolve_fs(fs)

    # -- manifest ----------------------------------------------------------
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def load_manifest(self) -> Optional[dict]:
        """The stored manifest, or ``None`` for a fresh directory."""
        path = self.manifest_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def ensure_manifest(self, manifest: dict) -> None:
        """Write the manifest (fresh store) or validate it (resume).

        Raises :class:`CampaignMismatch` when the directory already
        holds a campaign with a different grid, seed, or trial count —
        mixing two campaigns in one store would silently corrupt every
        aggregate.
        """
        existing = self.load_manifest()
        if existing is not None:
            if existing != manifest:
                # name the keys that actually differ — the manifest
                # layout varies by store kind (campaign vs exploration),
                # so the detail must be derived, not hardcoded
                differing = sorted(
                    k for k in set(existing) | set(manifest)
                    if existing.get(k) != manifest.get(k)
                )
                detail = ", ".join(
                    f"{k}: stored {existing.get(k)!r} != requested {manifest.get(k)!r}"
                    for k in differing
                )
                raise CampaignMismatch(
                    f"{self.root} holds a different {self.KIND} ({detail}); "
                    "use a fresh directory or rerun with the original parameters"
                )
            return
        self.root.mkdir(parents=True, exist_ok=True)
        # per-process tmp name: concurrently-launched writers may all
        # reach this branch, and a shared tmp path would let one racer
        # os.replace() the other's file away mid-write.  Each writes an
        # identical manifest, so whichever replace lands last wins.
        tmp = self.manifest_path().with_name(f".manifest-{os.getpid()}.tmp")
        self.fs.write_text(tmp, json.dumps(manifest, indent=2, sort_keys=True))
        self.fs.replace(tmp, self.manifest_path())

    # -- trial records -----------------------------------------------------
    def record_files(self) -> List[Path]:
        return sorted(self.root.glob(f"{self.RECORD_PREFIX}-*.jsonl"))

    def record_file_sizes(self) -> Dict[str, int]:
        """``file name -> byte size`` snapshot of every record file.

        The columnar compactor stores this snapshot so a later reader
        can tell (with one ``stat`` per file, no line parsing) whether
        the compacted layout still reflects the JSONL contents.
        """
        return {p.name: self.fs.stat(p).st_size for p in self.record_files()}

    def iter_records(self, files: Optional[Sequence[Path]] = None) -> Iterable[dict]:
        """Stream all well-formed records across every record file.

        Torn or garbage lines (a kill mid-append, disk-full partial
        writes) and lines whose embedded CRC32 disagrees with their
        body are skipped — append-only JSONL means everything before
        them is still valid, and ``repro fsck`` exists to *report* the
        damage this read path tolerates.  One record is held in memory
        at a time, so million-row stores stream through aggregation
        and compaction without materializing.  ``files`` restricts the
        scan to a subset of record files (the columnar merge path
        reads only the files its compaction does not cover).
        """
        for path in self.record_files() if files is None else files:
            with open(path, "r") as fh:
                yield from self._good_records(fh)

    def _good_records(self, lines: Iterable[str]) -> Iterable[dict]:
        """The well-formed records among raw store ``lines``."""
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec, damage = decode_record_line(line)
            if damage is None and self.REQUIRED_KEYS <= rec.keys():
                yield rec

    def records_after(
        self, offsets: Dict[str, int]
    ) -> Optional[Tuple[List[dict], Dict[str, int]]]:
        """The records of every whole line past ``offsets`` (record file
        name -> bytes already read; absent = 0), and the offsets past
        them — or ``None`` when a file shrank or vanished since
        (``fsck --repair``, ``compact --prune``) and offsets are void."""
        sizes = self.record_file_sizes()
        if any(sizes.get(name, -1) < end for name, end in offsets.items()):
            return None
        records: List[dict] = []
        after: Dict[str, int] = {}
        for name in sizes:
            lines, after[name] = whole_lines_after(self.root / name,
                                                   offsets.get(name, 0))
            records.extend(self._good_records(lines))
        return records, after

    def load_records(self) -> List[dict]:
        """All well-formed trial records, materialized (see :meth:`iter_records`)."""
        return list(self.iter_records())

    def iter_all_records(self) -> Iterable[dict]:
        """Stream every record, preferring the columnar compaction.

        Identical to :meth:`iter_records` when no compaction exists;
        with one, compacted rows stream out of the columnar layout and
        only *uncovered* JSONL files (new or grown since compaction)
        are parsed — a pruned store (JSONL deleted after compaction)
        still yields its full history.  Rows from a file that grew
        since compaction can appear twice; every consumer of record
        streams dedupes on its natural key, so duplicates are harmless.
        """
        from .columnar import iter_store_records  # local: avoid import cycle

        return iter_store_records(self)

    def completed_index(self, records: Iterable[dict]) -> Dict[str, set]:
        """``cell key -> set of completed trial indices`` of ``records``."""
        done: Dict[str, set] = {}
        for rec in records:
            done.setdefault(rec["cell"], set()).add(int(rec["trial"]))
        return done

    def open_writer(self, shard: Tuple[int, int]):
        """Append-mode handle of this shard's record file (see
        :meth:`open_tagged_writer`)."""
        return self.open_tagged_writer(f"{shard[0]}of{shard[1]}")

    def open_tagged_writer(self, tag: str):
        """Append-mode handle of the record file ``<prefix>-<tag>.jsonl``.

        ``tag`` is any filesystem-safe suffix — serial runs and explorer
        shards use ``iofk``, fabric workers their worker id — and every such file
        is picked up by :meth:`record_files` regardless of spelling.

        If a previous process died mid-append the file ends in a torn
        half-line; appending straight after it would weld the next
        record onto the garbage and lose it too.  A newline is stitched
        in first so the torn fragment stays an isolated bad line (which
        :meth:`load_records` skips) and every new record starts clean.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{self.RECORD_PREFIX}-{tag}.jsonl"
        fh = open(path, "a+b")
        try:
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        except OSError:
            fh.close()
            raise
        fh.close()
        return open(path, "a")

    def append(self, fh, record: dict) -> None:
        """Write one record as a single flushed, checksummed JSON line."""
        self.fs.append_text(fh, encode_record_line(record) + "\n")

    # -- integrity ---------------------------------------------------------
    def corrupt_dir(self) -> Path:
        """Quarantine directory for damaged lines (``<root>/corrupt/``)."""
        return self.root / CORRUPT_DIRNAME

    def fsck(self, repair: bool = False) -> dict:
        """Verify every record line; optionally quarantine the damage.

        Scans all record files and classifies each line: good (CRC
        verifies, or a pre-checksum legacy line), ``unparsable`` (torn
        or garbage JSON — a kill mid-append), or ``checksum`` (parses
        but the embedded CRC32 disagrees with the body — bit rot or a
        hand-edit).  Parseable lines missing :attr:`REQUIRED_KEYS` are
        *foreign*, not damaged — they are counted but never flagged,
        matching what :meth:`iter_records` tolerates.

        With ``repair=True`` each damaged raw line is appended to
        ``corrupt/<filename>.bad`` and the record file is rewritten
        without it (atomically, via tmp + replace through the fs seam),
        so subsequent reads and compactions see a provably clean store.
        Returns ``{"files", "records_ok", "foreign", "damaged":
        [{"file", "line", "reason"}], "repaired"}``.
        """
        damaged: List[dict] = []
        records_ok = 0
        foreign = 0
        files = self.record_files()
        for path in files:
            keep: List[str] = []
            bad: List[str] = []
            with open(path, "r") as fh:
                for line_no, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if not line:
                        continue
                    rec, damage = decode_record_line(line)
                    if damage is not None:
                        damaged.append(
                            {"file": path.name, "line": line_no, "reason": damage}
                        )
                        bad.append(line)
                        continue
                    if self.REQUIRED_KEYS <= rec.keys():
                        records_ok += 1
                    else:
                        foreign += 1
                    keep.append(line)
            if repair and bad:
                self.corrupt_dir().mkdir(parents=True, exist_ok=True)
                with open(self.corrupt_dir() / f"{path.name}.bad", "a") as qh:
                    for line in bad:
                        self.fs.append_text(qh, line + "\n")
                tmp = path.with_name(f".{path.name}.fsck-{os.getpid()}.tmp")
                self.fs.write_text(
                    tmp, "".join(line + "\n" for line in keep)
                )
                self.fs.replace(tmp, path)
        return {
            "files": [p.name for p in files],
            "records_ok": records_ok,
            "foreign": foreign,
            "damaged": damaged,
            "repaired": len(damaged) if repair else 0,
        }


def aggregate_records(
    spec: FigureSpec,
    cells: Sequence[_CellPlan],
    records: Iterable[dict],
    trials: int,
) -> FigureResult:
    """Merge trial records into a :class:`FigureResult`.

    Records are deduplicated on ``(cell, trial)`` and folded in trial
    order, so the aggregate is a pure function of the completed trial
    set — identical bytes whether the campaign ran straight through,
    was resumed five times, or was drained by a fleet.
    """
    by_cell: Dict[str, Dict[int, dict]] = {c.key: {} for c in cells}
    for rec in records:
        slot = by_cell.get(rec["cell"])
        if slot is None:
            continue  # foreign record (e.g. from an older grid) — ignore
        idx = int(rec["trial"])
        if 0 <= idx < trials:
            slot.setdefault(idx, rec)
    result = FigureResult(spec)
    for cell in cells:
        stats = ConvergenceStats()
        for idx in sorted(by_cell[cell.key]):
            rec = by_cell[cell.key][idx]
            stats.add(int(rec["steps"]), rec["status"] == "converged")
        result.series.setdefault(cell.series, {})[cell.n] = stats
    return result


def metric_payloads(records: Iterable[dict]) -> Dict[str, Dict[int, dict]]:
    """``cell key -> {trial -> stored metric dict}`` across all records.

    Rows written before the metrics redesign (or by scenarios with the
    default steps/status metric set) have no ``"metrics"`` key and are
    simply absent here — the steps/status aggregate path is unaffected.
    Duplicated ``(cell, trial)`` rows keep the first occurrence, like
    :func:`aggregate_records`.
    """
    out: Dict[str, Dict[int, dict]] = {}
    for rec in records:
        metrics = rec.get("metrics")
        if not isinstance(metrics, dict):
            continue
        out.setdefault(rec["cell"], {}).setdefault(int(rec["trial"]), metrics)
    return out


def aggregate_payload(result: FigureResult) -> dict:
    """Canonical JSON payload of an aggregate (for reports and the
    byte-identity tests): ``{series: {n: stats dict}}``."""
    return {
        name: {str(n): stats.as_dict() for n, stats in sorted(per_n.items())}
        for name, per_n in sorted(result.series.items())
    }


@dataclass
class CampaignRun:
    """Outcome of one ``run_campaign`` invocation."""

    result: FigureResult
    new_trials: int
    skipped_existing: int
    remaining: int
    total: int

    @property
    def complete(self) -> bool:
        """Whether every (cell, trial) of the campaign is stored."""
        return self.remaining == 0


def _trial_row(key: str, idx: int, rec: TrialRecord) -> dict:
    """The stored JSONL row of one completed trial.

    ``steps``/``status`` stay top-level (the aggregate contract);
    metrics beyond that implicit pair ride along under ``"metrics"``.
    The key is omitted when the scenario requests no extra metrics, so
    legacy-shaped campaigns keep writing byte-identical rows.
    """
    row = {"cell": key, "trial": idx, "steps": rec.steps, "status": rec.status}
    extra = rec.extra_metrics()
    if extra:
        row["metrics"] = {k: extra[k] for k in sorted(extra)}
    return row


def run_campaign(
    spec: FigureSpec,
    root,
    seed: int = 0,
    trials: Optional[int] = None,
    n_values: Optional[Sequence[int]] = None,
    n_jobs: Optional[int] = None,
    max_steps_factor: int = 50,
    max_new_trials: Optional[int] = None,
    resume: bool = True,
) -> CampaignRun:
    """Run (or continue) a campaign of ``spec`` against the store at
    ``root``.

    :class:`~repro.experiments.fabric.CampaignSource` plans the trials
    the store lacks; ``max_new_trials`` caps them in cell, then trial
    order, so a campaign drains in slices of any size.  When ``n_jobs``
    resolves to 1 the units run in this process into
    ``trials-0of1.jsonl``; otherwise a
    :class:`~repro.experiments.fabric.Coordinator` fleet drains them,
    and a failed unit raises ``FabricError`` with its recorded error.
    The store, not the fleet's queue, decides what a resume runs.

    ``resume=False`` refuses to touch a store that already holds trial
    records; it never deletes anything (resumability is the default —
    the flag exists so scripted fresh runs fail loudly instead of
    silently absorbing stale results).
    """
    from .fabric import CampaignSource, Coordinator, FabricError  # local: fabric imports campaign

    source = CampaignSource(
        spec, seed=seed, trials=trials, n_values=n_values,
        max_steps_factor=max_steps_factor, max_new_trials=max_new_trials,
    )
    store = source.store(root)
    if not resume and store.record_files():
        raise CampaignMismatch(
            f"{store.root} already holds trial records; pass resume=True "
            "(CLI: --resume) to continue it, or choose a fresh directory"
        )
    units = source.plan(store, 0)
    planned = sum(len(unit["trials"]) for unit in units)
    workers = resolve_n_jobs(n_jobs, planned)
    eff_spec, use_trials, _, cells = source._grid()
    total = len(cells) * use_trials
    if workers <= 1:
        for unit in units:
            source.execute(unit, store, "0of1")  # the historical serial name
    elif units:
        coordinator = Coordinator(source, root, workers=workers)
        # the queue skips ids it finished or parked before; forget them
        # so the plan offers exactly what the store still lacks
        for entry in (*coordinator.queue.done.glob("*.json"),
                      *coordinator.queue.failed.glob("*.json")):
            entry.unlink(missing_ok=True)
        report = coordinator.drain()
        if report.interrupted:
            raise KeyboardInterrupt  # a graceful stop; the caller sees it
        if report.failed:
            unit = report.failed[0]
            raise FabricError(f"campaign unit {unit['id']} failed: "
                              f"{unit.get('error') or 'no error recorded'}")
        if report.complete:  # every planned trial is stored and aggregated
            return CampaignRun(report.result, planned, total - planned, 0, total)

    records = list(store.iter_all_records())
    done = store.completed_index(records)
    done_now = sum(len({t for t in done.get(c.key, ()) if 0 <= t < use_trials})
                   for c in cells)
    # count what was stored, not what was planned
    new = sum(i in done.get(unit["cell"], ()) for unit in units for i in unit["trials"])
    return CampaignRun(aggregate_records(eff_spec, cells, records, use_trials),
                       new, done_now - new, total - done_now, total)


def campaign_status(root, prefer_columnar: bool = True) -> dict:
    """Progress summary of the store at ``root`` (no trials are run).

    Returns ``{"total", "done", "remaining", "complete", "cells":
    {key: {"series", "n", "done", "trials"}}}``; raises
    ``FileNotFoundError`` when no manifest exists.

    When a *fresh* columnar compaction exists (see
    :mod:`repro.experiments.columnar` — its manifest records a byte-size
    snapshot of the record files it folded), the per-cell counts are
    answered from the compaction summary without reading a single JSONL
    line; a store that grew since compaction falls back to the full
    scan.  ``prefer_columnar=False`` forces the scan.
    """
    store = CampaignStore(root)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(f"no campaign manifest under {store.root}")
    trials = int(manifest["trials"])
    done_counts: Optional[Dict[str, int]] = None
    if prefer_columnar:
        from .columnar import ColumnarStore  # local: columnar imports campaign

        columnar = ColumnarStore(root)
        if columnar.exists() and columnar.fresh(store):
            done_counts = columnar.cells_done(trials)
    if done_counts is None:
        done = store.completed_index(store.iter_all_records())
        done_counts = {
            cell["key"]: len({t for t in done.get(cell["key"], set())
                              if 0 <= t < trials})
            for cell in manifest["cells"]
        }
    cells = {}
    total_done = 0
    for cell in manifest["cells"]:
        key = cell["key"]
        count = int(done_counts.get(key, 0))
        total_done += count
        cells[key] = {
            "series": cell["series"],
            "n": cell["n"],
            "done": count,
            "trials": trials,
        }
    total = len(manifest["cells"]) * trials
    return {
        "figure": manifest["figure"],
        "seed": manifest["seed"],
        "total": total,
        "done": total_done,
        "remaining": total - total_done,
        "complete": total_done == total,
        "cells": cells,
    }
