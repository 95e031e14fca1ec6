"""Resume / shard / kill-safety of the exploration store.

The acceptance contract: a killed exploration resumed later, a sharded
exploration drained across invocations, and a parallel-frontier run all
produce **byte-identical** ``ExplorationReport`` serialisations — the
report is a pure function of the explored graph.
"""

import json
import os

import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.statespace import ExplorationStore, explore
from repro.statespace.store import CampaignMismatch, manifest_for, write_report


@pytest.fixture()
def game():
    return AsymmetricSwapGame("sum")


@pytest.fixture()
def reference(game):
    """The straight-through in-memory report everything must match."""
    return explore(game, n=3)


class TestResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path, game, reference):
        root = tmp_path / "exp"
        partial = explore(game, n=3, store=root, max_expansions=5)
        assert not partial.complete and partial.pending > 0
        resumed = explore(game, n=3, store=root)
        assert resumed.complete
        assert resumed.json_bytes() == reference.json_bytes()

    def test_resume_recomputes_nothing(self, tmp_path, game):
        root = tmp_path / "exp"
        explore(game, n=3, store=root)
        before = ExplorationStore(root).load_records()
        again = explore(game, n=3, store=root)
        after = ExplorationStore(root).load_records()
        assert again.complete
        assert before == after  # no new rows appended

    def test_torn_final_line_is_survived(self, tmp_path, game, reference):
        root = tmp_path / "exp"
        explore(game, n=3, store=root, max_expansions=8)
        store = ExplorationStore(root)
        path = store.record_files()[0]
        with open(path, "ab") as fh:  # simulate a kill mid-append
            fh.write(b'{"key": "dead')
        resumed = explore(game, n=3, store=root)
        assert resumed.json_bytes() == reference.json_bytes()

    def test_mismatched_identity_is_refused(self, tmp_path, game):
        root = tmp_path / "exp"
        explore(game, n=3, store=root, max_expansions=1)
        with pytest.raises(CampaignMismatch):
            explore(AsymmetricSwapGame("max"), n=3, store=root)
        with pytest.raises(CampaignMismatch):
            explore(game, n=3, store=root, moves="improving")

    def test_store_path_accepts_plain_strings(self, tmp_path, game, reference):
        report = explore(game, n=3, store=str(tmp_path / "strpath"))
        assert report.json_bytes() == reference.json_bytes()


class TestShards:
    def test_alternating_shards_drain_to_the_full_graph(self, tmp_path, game, reference):
        root = tmp_path / "exp"
        last = None
        for _ in range(20):
            a = explore(game, n=3, store=root, shard=(0, 2))
            b = explore(game, n=3, store=root, shard=(1, 2))
            last = b
            if a.complete and b.complete:
                break
        assert last is not None and last.complete
        assert last.json_bytes() == reference.json_bytes()

    def test_single_shard_reports_incomplete(self, tmp_path, game):
        root = tmp_path / "exp"
        report = explore(game, n=3, store=root, shard=(0, 2))
        # shard 0 drained its own states; shard 1's are still pending
        assert not report.complete and report.pending > 0

    def test_shard_files_are_disjointly_named(self, tmp_path, game):
        root = tmp_path / "exp"
        explore(game, n=3, store=root, shard=(0, 2))
        explore(game, n=3, store=root, shard=(1, 2))
        names = sorted(p.name for p in ExplorationStore(root).record_files())
        assert names == ["states-0of2.jsonl", "states-1of2.jsonl"]


class TestParallelFrontier:
    def test_n_jobs_two_is_byte_identical(self, tmp_path, game, reference):
        report = explore(game, n=3, store=tmp_path / "par", n_jobs=2)
        assert report.json_bytes() == reference.json_bytes()

    def test_n_jobs_requires_default_backend(self, game):
        from repro.graphs.incremental import IncrementalBackend

        with pytest.raises(ValueError, match="backend=None"):
            explore(game, n=3, backend=IncrementalBackend(), n_jobs=2)


class TestReportFile:
    def test_write_report_is_canonical(self, tmp_path, game, reference):
        store = ExplorationStore(tmp_path / "exp")
        report = explore(game, n=3, store=store)
        write_report(store, report)
        raw = (store.root / "report.json").read_bytes()
        assert raw == reference.json_bytes()
        assert json.loads(raw)["n_states"] == reference.n_states

    def test_manifest_identity_fields(self, game):
        manifest = manifest_for(game, "best", "all", 3, [b"k1", b"k2"], 10)
        assert manifest["kind"] == "statespace"
        assert manifest["game"]["type"] == "AsymmetricSwapGame"
        assert manifest["seeds"] == 2
        # seed order must not matter
        other = manifest_for(game, "best", "all", 3, [b"k2", b"k1"], 10)
        assert other == manifest


class TestStatus:
    def test_status_counts_without_decoding(self, tmp_path, game):
        from repro.statespace.encode import state_key
        from repro.statespace.explore import enumerate_states

        seeds = [state_key(s).hex() for s in enumerate_states(3)]
        root = tmp_path / "exp"
        explore(game, n=3, store=root, max_expansions=5)
        status = ExplorationStore(root).status(seeds)
        assert status["expanded"] == 5
        assert status["pending"] > 0 and not status["complete"]
        explore(game, n=3, store=root)
        assert ExplorationStore(root).status(seeds)["complete"]

    def test_seed_keys_make_pending_exact(self, tmp_path, game):
        """Without seed keys an all-seeds store with few rows can look
        complete; folding the seeds in makes pending exact."""
        from repro.statespace.encode import state_key
        from repro.statespace.explore import enumerate_states

        root = tmp_path / "exp"
        explore(game, n=3, store=root, max_expansions=1)
        store = ExplorationStore(root)
        seeds = [state_key(s).hex() for s in enumerate_states(3)]
        exact = store.status(seeds)
        assert exact["discovered"] == len(set(seeds)) and not exact["complete"]
        assert exact["pending"] == len(set(seeds)) - 1


class TestStoreFormatReuse:
    """The exploration store inherits the campaign store's discipline."""

    def test_is_a_campaign_store_subclass(self):
        from repro.experiments.campaign import CampaignStore

        assert issubclass(ExplorationStore, CampaignStore)

    def test_campaign_store_files_unchanged(self, tmp_path):
        """The generalisation must not move the campaign's file names."""
        from repro.experiments.campaign import CampaignStore

        store = CampaignStore(tmp_path)
        with store.open_writer((0, 1)) as fh:
            store.append(fh, {"cell": "c", "trial": 0, "steps": 1, "status": "converged"})
        assert (tmp_path / "trials-0of1.jsonl").exists()
        assert len(store.load_records()) == 1

    def test_foreign_rows_are_ignored(self, tmp_path, game, reference):
        root = tmp_path / "exp"
        explore(game, n=3, store=root, max_expansions=4)
        path = ExplorationStore(root).record_files()[0]
        with open(path, "a") as fh:
            fh.write(json.dumps({"cell": "x", "trial": 1, "steps": 2,
                                 "status": "converged"}) + "\n")
        resumed = explore(game, n=3, store=root)
        assert resumed.json_bytes() == reference.json_bytes()
