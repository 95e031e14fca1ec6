"""Columnar compaction of JSONL record stores, with streaming analytics.

A record store (:class:`~repro.experiments.campaign.CampaignStore` or the
statespace :class:`~repro.statespace.store.ExplorationStore`) accumulates
append-only JSONL shard files.  That layout is perfect for kill-safe
writes and terrible for analytics: answering ``campaign_status`` or
re-aggregating a million-trial sweep means parsing every line of every
file on every query.  *Compaction* folds the record files into a
columnar layout under ``<root>/columnar/``::

    <root>/columnar/
      manifest.json        # format, row count, per-chunk layout, a
                           # byte-size snapshot of the source files, and
                           # a pre-computed per-cell completion summary
      chunk<k>-col<j>.json # one column of one chunk

The layout (manifest ``"format": "chunks"``) splits rows into chunks of
``chunk_rows``; each chunk stores one JSON file per column, and
low-cardinality string columns are dictionary-encoded
(``{"dict": [...], "codes": [...]}``).  No dependencies beyond the
standard library.  A compaction in any other format (the retired
``"parquet"`` one) fails to read with :class:`UnsupportedColumnarFormat`.

Freshness is decided by *byte sizes, not content*: the manifest records
``{file name: size}`` for every record file at compaction time, and the
compaction is fresh while every **currently present** record file still
has exactly its snapshotted size.  A grown, shrunk, or new file makes it
stale; a *deleted* file does not — its rows live on in the compaction,
which is what makes ``compact_store(prune=True)`` safe: the JSONL files
can be removed and status/resume/aggregation keep working out of the
columnar layout alone.  (Append-only discipline means same-size-but-
different-content never happens outside deliberate tampering.)

The module is deliberately free of imports from the campaign module —
any object with ``root`` / ``RECORD_PREFIX`` / ``REQUIRED_KEYS`` /
``record_files()`` / ``record_file_sizes()`` / ``iter_records()`` is a
compactable store, which is how both the campaign and exploration
stores ride the same code.

Format note: record rows are JSON objects that never hold ``null``
values (both stores guarantee this), so ``None`` in a column is
reserved to mean "key absent in this row" and dropped on read.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from ..testing.faults import resolve_fs

__all__ = [
    "COLUMNAR_VERSION",
    "ColumnarStore",
    "UnsupportedColumnarFormat",
    "compact_store",
    "iter_store_records",
]

COLUMNAR_VERSION = 1

#: subdirectory of the store root holding the compaction.
DIRNAME = "columnar"

#: default rows per chunk in the pure-python format.
DEFAULT_CHUNK_ROWS = 65536

#: a string column chunk with at most this many distinct values is
#: dictionary-encoded.
DICT_MAX = 255


class UnsupportedColumnarFormat(ValueError):
    """A compaction in a format this reader does not speak."""


def _encode_column(values: Sequence) -> dict:
    """One column chunk as its JSON payload.

    All-string (or ``None``) columns with few distinct values are
    dictionary-encoded; everything else is stored verbatim — the values
    came from JSON lines, so a JSON array holds them losslessly.
    """
    if all(v is None or isinstance(v, str) for v in values):
        index: Dict[Optional[str], int] = {}
        codes = []
        for v in values:
            if v not in index:
                if len(index) > DICT_MAX:
                    break
                index[v] = len(index)
            codes.append(index[v])
        else:
            if len(index) < len(values):
                return {"dict": list(index), "codes": codes}
    return {"data": list(values)}


def _decode_column(payload: dict) -> List:
    if "dict" in payload:
        d = payload["dict"]
        return [d[c] for c in payload["codes"]]
    return payload["data"]


class ColumnarStore:
    """Reader of the columnar compaction under ``<root>/columnar/``."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.dir = self.root / DIRNAME

    def manifest_path(self) -> Path:
        return self.dir / "manifest.json"

    def exists(self) -> bool:
        return self.manifest_path().exists()

    def load_manifest(self) -> Optional[dict]:
        path = self.manifest_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- freshness ---------------------------------------------------------
    def fresh(self, store) -> bool:
        """Whether the compaction still reflects ``store``'s records.

        True iff every record file *currently on disk* has exactly the
        byte size snapshotted at compaction time.  Files that were
        deleted since (``prune=True``) stay fresh — their rows are in
        the compaction; files that grew, shrank, or appeared are not.
        """
        manifest = self.load_manifest()
        if manifest is None:
            return False
        snapshot = manifest.get("source", {})
        return all(
            snapshot.get(name) == size
            for name, size in store.record_file_sizes().items()
        )

    def covered_files(self, store) -> set:
        """Names of record files whose rows the compaction fully holds."""
        manifest = self.load_manifest()
        if manifest is None:
            return set()
        snapshot = manifest.get("source", {})
        return {
            name for name, size in store.record_file_sizes().items()
            if snapshot.get(name) == size
        }

    # -- summaries ---------------------------------------------------------
    def rows(self) -> int:
        manifest = self.load_manifest()
        return int(manifest["rows"]) if manifest else 0

    def cells_done(self, trials: Optional[int] = None) -> Optional[Dict[str, int]]:
        """Per-cell completed-trial counts from the compaction summary.

        The summary was computed against the store manifest's ``trials``
        bound at compaction time; pass the current bound to make a
        changed bound return ``None`` (forcing a scan) instead of stale
        counts.  ``None`` also means "no summary stored" (exploration
        stores, or a campaign store without a manifest).
        """
        manifest = self.load_manifest() or {}
        summary = manifest.get("summary") or {}
        counts = summary.get("cells_done")
        if counts is None:
            return None
        if trials is not None and summary.get("trials") != trials:
            return None
        return dict(counts)

    # -- row access --------------------------------------------------------
    def iter_rows(self) -> Iterator[dict]:
        """Stream every compacted record, one dict at a time.

        Rows come back key-equal to the JSONL records they were folded
        from (``None`` columns are absent keys — see the module note).
        """
        manifest = self.load_manifest()
        if manifest is None:
            return
        if manifest["format"] != "chunks":
            raise UnsupportedColumnarFormat(
                f"{self.dir} holds a {manifest['format']!r} compaction, "
                "which this version cannot read; remove it to fall back "
                "to the JSONL record files")
        for k, chunk in enumerate(manifest["chunks"]):
            columns = chunk["columns"]
            data = []
            for j in range(len(columns)):
                payload = json.loads(
                    (self.dir / f"chunk{k}-col{j}.json").read_text()
                )
                data.append(_decode_column(payload))
            for values in zip(*data):
                yield {
                    name: v for name, v in zip(columns, values) if v is not None
                }


def _recover_interrupted_swap(root: Path, fs) -> None:
    """Finish a compaction swap a dead process left half-done.

    ``compact_store`` swaps the new layout in with two renames (current
    dir → ``.columnar-old-<pid>``, tmp → current).  A death between
    them leaves the only readable compaction under the ``old`` name —
    and on a pruned store that is the only copy of the pruned rows, so
    this must be repaired before any read.  Recovery is the obvious
    rename back; it runs at every compaction entry and lazily at the
    top of :func:`iter_store_records`, and is a no-op whenever a
    readable compaction is in place.
    """
    coldir = root / DIRNAME
    if (coldir / "manifest.json").exists():
        return
    candidates = sorted(
        p for p in root.glob(f".{DIRNAME}-old-*")
        if (p / "manifest.json").exists()
    )
    if not candidates:
        return
    if coldir.exists():
        # manifest-less husk (a death mid-teardown) — clear it so the
        # preserved compaction can take its place
        fs.rmtree(coldir)
    fs.rename(candidates[-1], coldir)
    for stray in candidates[:-1]:
        fs.rmtree(stray)


def _compaction_rows(store) -> Iterator[dict]:
    """The row stream a (re)compaction folds: every record, each once.

    Fresh stores stream straight off the JSONL.  When a compaction
    already exists the stream is :func:`iter_store_records` — compacted
    rows plus uncovered files — with *exact* duplicates suppressed: a
    file that grew since the last compaction contributes its
    pre-compaction rows from both sides, and without suppression every
    recompaction of a still-growing store would bake another copy in.
    Suppression is by 128-bit digest of the canonical row JSON, so only
    byte-identical rows collapse; rows that merely share a natural key
    are preserved for the consumers that dedupe by first-wins.
    """
    if not ColumnarStore(store.root).exists():
        yield from store.iter_records()
        return
    seen = set()
    for rec in iter_store_records(store):
        digest = int.from_bytes(
            hashlib.blake2b(
                json.dumps(rec, sort_keys=True).encode("utf-8"), digest_size=16
            ).digest(),
            "big",
        )
        if digest in seen:
            continue
        seen.add(digest)
        yield rec


def _campaign_summary(store, rows_seen: Dict[str, set]) -> dict:
    """The pre-computed per-cell completion counts (campaign stores).

    Counts are bounded to the store manifest's ``trials`` — exactly the
    filter ``campaign_status`` applies — and the bound is recorded so a
    later bound change invalidates the summary instead of skewing it.
    """
    manifest_path = store.root / "manifest.json"
    if not manifest_path.exists():
        return {}
    try:
        trials = int(json.loads(manifest_path.read_text())["trials"])
    except (ValueError, KeyError, json.JSONDecodeError):
        return {}
    return {
        "kind": "campaign",
        "trials": trials,
        "cells_done": {
            cell: len({t for t in idxs if 0 <= t < trials})
            for cell, idxs in sorted(rows_seen.items())
        },
    }


def _write_chunk(directory: Path, k: int, rows: List[dict], fs) -> dict:
    """Write one chunk (one file per column) and return its metadata."""
    columns = sorted({key for row in rows for key in row})
    for j, name in enumerate(columns):
        payload = _encode_column([row.get(name) for row in rows])
        fs.write_text(
            directory / f"chunk{k}-col{j}.json",
            json.dumps(payload, separators=(",", ":")),
        )
    return {"rows": len(rows), "columns": columns}


def _compact_chunks(store, directory: Path, chunk_rows: int, fs) -> dict:
    """Stream the store into the chunk layout.

    Rows come from :func:`_compaction_rows` — the existing compaction
    plus uncovered JSONL — not the raw record files alone: on a pruned
    store the compaction *is* the only copy of the pruned rows, and a
    recompaction that read only JSONL would silently drop them all.
    """
    chunks: List[dict] = []
    buffer: List[dict] = []
    rows = 0
    cells: Dict[str, set] = {}
    campaign_shaped = {"cell", "trial"} <= set(store.REQUIRED_KEYS)
    for rec in _compaction_rows(store):
        buffer.append(rec)
        rows += 1
        if campaign_shaped:
            cells.setdefault(rec["cell"], set()).add(int(rec["trial"]))
        if len(buffer) >= chunk_rows:
            chunks.append(_write_chunk(directory, len(chunks), buffer, fs))
            buffer = []
    if buffer:
        chunks.append(_write_chunk(directory, len(chunks), buffer, fs))
    return {
        "format": "chunks",
        "rows": rows,
        "chunks": chunks,
        "columns": sorted({c for chunk in chunks for c in chunk["columns"]}),
        "summary": _campaign_summary(store, cells) if campaign_shaped else {},
    }


def compact_store(
    store,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    prune: bool = False,
) -> dict:
    """Fold ``store``'s JSONL record files into ``<root>/columnar/``.

    The source byte-size snapshot is taken *before* reading, so a
    writer appending concurrently can only make the result conservative
    (the grown file reads as stale and is re-scanned), never wrong.
    The new layout is assembled in a temp directory and swapped in with
    renames; a kill mid-compaction leaves either the old compaction or
    none — never a half-readable one (the manifest is written last).

    ``prune=True`` deletes every record file the compaction fully
    covers (current size still equal to the snapshot).

    All mutations route through the store's filesystem seam
    (``store.fs``), so the chaos suite can kill a compaction at any
    rename/write boundary; entry first repairs any half-done swap a
    previous death left behind (see :func:`_recover_interrupted_swap`).

    Returns a summary dict: ``{"format", "rows", "chunks", "columns",
    "source", "pruned"}``.
    """
    fs = resolve_fs(getattr(store, "fs", None))
    columnar = ColumnarStore(store.root)
    _recover_interrupted_swap(columnar.root, fs)
    # a completed swap that died before its teardown leaves a stale
    # old-dir husk; we are the compactor, so clear any of them now
    for stale in columnar.root.glob(f".{DIRNAME}-old-*"):
        fs.rmtree(stale)
    snapshot = store.record_file_sizes()
    tmp = columnar.root / f".{DIRNAME}-{os.getpid()}.tmp"
    if tmp.exists():
        fs.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        result = _compact_chunks(store, tmp, chunk_rows, fs)

        manifest = {
            "version": COLUMNAR_VERSION,
            "record_prefix": store.RECORD_PREFIX,
            "source": snapshot,
            **result,
        }
        # manifest last: its presence is what makes the layout readable
        fs.write_text(
            tmp / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
        )

        old = columnar.root / f".{DIRNAME}-old-{os.getpid()}"
        if old.exists():
            fs.rmtree(old)
        if columnar.dir.exists():
            fs.rename(columnar.dir, old)
        fs.rename(tmp, columnar.dir)
        if old.exists():
            fs.rmtree(old)
    finally:
        # routed through the seam on purpose: a *dead* fs must not tidy
        # up — a real killed process leaves its tmp debris behind
        if tmp.exists():
            fs.rmtree(tmp)

    pruned = []
    if prune:
        for name, size in snapshot.items():
            path = store.root / name
            try:
                # only files still exactly as compacted — a file that
                # grew since the snapshot holds rows the compaction
                # does not, and must survive
                if fs.stat(path).st_size == size:
                    fs.unlink(path)
                    pruned.append(name)
            except OSError:
                continue
    summary = dict(manifest)
    summary.pop("summary", None)
    summary["chunks"] = len(result["chunks"])
    summary["pruned"] = sorted(pruned)
    return summary


def iter_store_records(store) -> Iterator[dict]:
    """Every record of ``store``, reading JSONL as little as possible.

    Yields the compacted rows (when a compaction exists) followed by
    the rows of every record file the compaction does not fully cover —
    new files, files that grew since compaction, and everything when no
    compaction exists.  A grown file's pre-compaction rows are yielded
    twice (once from each side); that is deliberate: records are
    idempotent facts and every consumer (``completed_index``,
    ``aggregate_records``, the explorer's replay) already dedupes, so a
    duplicate is always harmless while a missing record never is.
    """
    _recover_interrupted_swap(
        Path(store.root), resolve_fs(getattr(store, "fs", None))
    )
    columnar = ColumnarStore(store.root)
    if not columnar.exists():
        yield from store.iter_records()
        return
    covered = columnar.covered_files(store)
    yield from columnar.iter_rows()
    uncovered = [p for p in store.record_files() if p.name not in covered]
    if uncovered:
        yield from store.iter_records(files=uncovered)
