"""Tests for the ``python -m repro`` command line interface."""

import pytest

from repro.__main__ import main


class TestVerify:
    def test_verify_all_defaults(self, capsys):
        assert main(["verify", "fig9", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "OK  fig9" in out and "OK  fig10" in out

    def test_verify_unknown_figure(self, capsys):
        assert main(["verify", "fig99"]) == 1
        assert "unknown figure" in capsys.readouterr().out


class TestRun:
    def test_run_asg(self, capsys):
        assert main(["run", "--game", "asg", "--n", "15", "--seed", "1"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_run_gbg(self, capsys):
        assert main(["run", "--game", "gbg", "--n", "12", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "social_cost" in out and "diameter" in out

    def test_run_sg(self, capsys):
        assert main(["run", "--game", "sg", "--n", "12", "--seed", "0"]) == 0

    @pytest.mark.parametrize("flag", ["--alpha=nan", "--alpha=inf", "--alpha=-3",
                                      "--param=alpha=n/0"])
    def test_run_rejects_degenerate_alpha(self, capsys, flag):
        assert main(["run", "--game", "gbg", flag, "--n", "10", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and "alpha" in out

    def test_run_registry_only_policy(self, capsys):
        """A policy outside the legacy maxcost/random pair runs via the
        registry-generated choices."""
        assert main(["run", "--game", "asg", "--policy", "greedy",
                     "--n", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "asg/greedy/sequential/budget" in out and "converged" in out

    def test_run_simultaneous_with_params(self, capsys):
        rc = main(["run", "--game", "gbg", "--policy", "noisy",
                   "--dynamics", "simultaneous", "--topology", "tree",
                   "--param", "epsilon=0.2", "--param", "collision=forfeit",
                   "--metrics", "steps,status,rounds,social_cost",
                   "--n", "14", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gbg/noisy/simultaneous/tree" in out
        assert "rounds" in out and "social_cost" in out

    def test_run_alpha_on_swap_game_is_ignored_not_fatal(self, capsys):
        """Pre-registry the CLI accepted (and ignored) --alpha for swap
        games; the registry path must keep accepting it."""
        assert main(["run", "--game", "asg", "--alpha", "2",
                     "--n", "12", "--seed", "1"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_run_notes_inert_policy_under_simultaneous(self, capsys):
        rc = main(["run", "--game", "asg", "--policy", "noisy",
                   "--dynamics", "simultaneous", "--param", "epsilon=0.3",
                   "--n", "10", "--seed", "0"])
        assert rc in (0, 1)
        assert "not consulted" in capsys.readouterr().out

    def test_run_bad_param_is_reported(self, capsys):
        assert main(["run", "--game", "asg", "--param", "nope=1"]) == 2
        out = capsys.readouterr().out
        assert "error" in out and "nope" in out

    def test_run_ambiguous_param_requires_qualification(self, capsys):
        # move_tie_break is declared by the dynamics axis only, but
        # mode belongs to the game axis; craft a real ambiguity:
        # 'method' (tree) vs nothing else — instead check the axis
        # qualifier path works end-to-end.
        rc = main(["run", "--game", "gbg", "--topology", "tree",
                   "--param", "topology.method=prufer", "--n", "10",
                   "--seed", "0"])
        assert rc == 0


class TestExperiment:
    def test_experiment_small_grid(self, capsys):
        rc = main(["experiment", "fig7", "--trials", "2", "--n", "10,14"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k=1, max cost" in out and "[5n]" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2


class TestCampaign:
    def test_campaign_runs_resumes_and_reports(self, capsys, tmp_path):
        base = ["campaign", "fig7", "--trials", "2", "--n", "10",
                "--jobs", "1", "--results-dir", str(tmp_path)]
        assert main(base + ["--max-trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "ran 3 new trials" in out and "partial aggregate" in out

        assert main(base + ["--status"]) == 0
        out = capsys.readouterr().out
        assert "3/12 trials done" in out

        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipped 3 already stored" in out and "0/12 remaining" in out
        assert "k=1, max cost" in out  # complete → tables printed

        # refusing to clobber without --resume
        assert main(base) == 2
        assert "already holds trial records" in capsys.readouterr().out

    def test_campaign_jobs_drain_through_the_fleet(self, capsys, tmp_path):
        args = ["campaign", "fig7", "--trials", "2", "--n", "10", "--seed", "4"]
        assert main(args + ["--jobs", "2",
                            "--results-dir", str(tmp_path / "fleet")]) == 0
        fleet = capsys.readouterr().out
        assert main(args + ["--jobs", "1",
                            "--results-dir", str(tmp_path / "serial")]) == 0
        serial = capsys.readouterr().out
        assert "0/12 remaining" in fleet
        # the printed aggregates match; only the store root differs
        assert fleet.splitlines()[1:] == serial.splitlines()[1:]
        assert (tmp_path / "fleet" / "fig7-seed4" / "fabric").is_dir()

    def test_campaign_tree_scan(self, capsys, tmp_path):
        assert main(["campaign", "tree_scan", "--trials", "1", "--n", "6",
                     "--jobs", "1", "--seed", "3",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign tree_scan" in out and "0/5 remaining" in out
        assert "a=2n" in out  # the alpha ladder's series reached the tables

    def test_campaign_unknown_figure(self, capsys, tmp_path):
        assert main(["campaign", "fig99", "--results-dir", str(tmp_path)]) == 2

    def test_campaign_status_without_store(self, capsys, tmp_path):
        assert main(["campaign", "fig7", "--status",
                     "--results-dir", str(tmp_path)]) == 1
        assert "no campaign under" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["campaign", "experiment", "drain"])
    @pytest.mark.parametrize("trials", ["-2", "0"])
    def test_trial_counts_below_one_fail_friendly(self, capsys, tmp_path,
                                                  verb, trials):
        rc = main([verb, "fig7", "--trials", trials, "--n", "10"]
                  + ([] if verb == "experiment"
                     else ["--results-dir", str(tmp_path)]))
        assert rc == 2
        assert "trials must be at least 1" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())  # nothing was written

    @pytest.mark.parametrize("verb", ["campaign", "experiment"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_worker_counts_below_one_fail_friendly(self, capsys, tmp_path,
                                                   verb, jobs):
        rc = main([verb, "fig7", "--trials", "1", "--n", "10", "--jobs", jobs]
                  + (["--results-dir", str(tmp_path)] if verb == "campaign"
                     else []))
        assert rc == 2
        assert "n_jobs must be at least 1" in capsys.readouterr().out

    def test_env_worker_count_below_one_fails_friendly(self, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "0")
        rc = main(["campaign", "fig7", "--trials", "1", "--n", "10",
                   "--results-dir", str(tmp_path)])
        assert rc == 2
        assert "REPRO_N_JOBS must be at least 1" in capsys.readouterr().out

    def test_negative_max_trials_fails_friendly(self, capsys, tmp_path):
        rc = main(["campaign", "fig7", "--trials", "1", "--n", "10",
                   "--max-trials", "-3", "--results-dir", str(tmp_path)])
        assert rc == 2
        assert "max_new_trials must be at least 0" in capsys.readouterr().out


class TestDrainCompact:
    def test_drain_compact_status_roundtrip(self, capsys, tmp_path):
        rc = main(["drain", "fig7", "--trials", "2", "--n", "10",
                   "--workers", "2", "--lease-ttl", "10",
                   "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "units done" in out and "k=1, max cost" in out  # tables printed

        root = str(tmp_path / "fig7-seed0")
        assert main(["compact", root, "--prune"]) == 0
        out = capsys.readouterr().out
        assert "compacted 12 records" in out and "pruned" in out

        assert main(["compact", root, "--status"]) == 0
        assert "fresh" in capsys.readouterr().out

        # status answers off the columnar layout — the JSONL is gone
        assert not list((tmp_path / "fig7-seed0").glob("trials-*.jsonl"))
        assert main(["campaign", "fig7", "--status",
                     "--results-dir", str(tmp_path)]) == 0
        assert "12/12 trials done" in capsys.readouterr().out

    def test_drain_resumes_capped_leftovers(self, capsys, tmp_path):
        base = ["campaign", "fig7", "--trials", "2", "--n", "10",
                "--jobs", "1", "--results-dir", str(tmp_path)]
        assert main(base + ["--max-trials", "5"]) == 0
        assert "7/12 remaining" in capsys.readouterr().out
        rc = main(["drain", "fig7", "--trials", "2", "--n", "10",
                   "--workers", "2", "--results-dir", str(tmp_path),
                   "--compact", "--prune"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "units done" in out
        # --compact folded and pruned the store in the same invocation
        assert "compacted 12 records" in out and "pruned" in out
        assert not list((tmp_path / "fig7-seed0").glob("trials-*.jsonl"))

    def test_compact_exploration_store(self, capsys, tmp_path):
        assert main(["explore", "--game", "sg", "--n", "3",
                     "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        root = str(tmp_path / "explore-sg-sum-n3")
        assert main(["compact", root, "--prune"]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["compact", root, "--status"]) == 0
        assert "fresh" in capsys.readouterr().out
        # the pruned statespace store still answers --status off columnar
        assert main(["explore", "--game", "sg", "--n", "3", "--status",
                     "--results-dir", str(tmp_path)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_drain_unknown_figure(self, capsys, tmp_path):
        assert main(["drain", "fig99", "--results-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--workers", "0", "workers"),
        ("--unit-trials", "0", "unit_trials"),
        ("--lease-ttl", "0", "lease_ttl"),
        ("--max-retries", "-1", "max_retries"),
        ("--unit-timeout", "-1", "unit_timeout"),
    ])
    def test_drain_rejects_bad_fabric_knobs(self, capsys, tmp_path,
                                            flag, value, name):
        rc = main(["drain", "fig7", "--trials", "1", "--n", "10",
                   flag, value, "--results-dir", str(tmp_path)])
        assert rc == 2
        assert f"error: {name} must be" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())  # refused before any write

    def test_compact_without_store(self, capsys, tmp_path):
        assert main(["compact", str(tmp_path)]) == 1
        assert "no store manifest" in capsys.readouterr().out

    def test_compact_status_before_compaction(self, capsys, tmp_path):
        main(["campaign", "fig7", "--trials", "1", "--n", "10", "--jobs", "1",
              "--results-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["compact", str(tmp_path / "fig7-seed0"), "--status"]) == 1
        assert "not compacted" in capsys.readouterr().out


class TestFsck:
    def campaign_root(self, tmp_path) -> str:
        main(["campaign", "fig7", "--trials", "1", "--n", "10", "--jobs", "1",
              "--results-dir", str(tmp_path)])
        return str(tmp_path / "fig7-seed0")

    def test_fsck_clean_store(self, capsys, tmp_path):
        root = self.campaign_root(tmp_path)
        capsys.readouterr()
        assert main(["fsck", root]) == 0
        out = capsys.readouterr().out
        assert "records ok" in out and "no damage found" in out

    def test_fsck_reports_then_repairs_damage(self, capsys, tmp_path):
        root = self.campaign_root(tmp_path)
        from pathlib import Path

        victim = sorted(Path(root).glob("trials-*.jsonl"))[0]
        with open(victim, "a") as fh:
            fh.write('{"torn half of a rec')
        capsys.readouterr()

        assert main(["fsck", root]) == 1
        out = capsys.readouterr().out
        assert "1 damaged lines" in out
        assert f"{victim.name}:" in out and "unparsable" in out
        assert "--repair" in out

        assert main(["fsck", root, "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 lines" in out
        assert (Path(root) / "corrupt" / f"{victim.name}.bad").exists()

        assert main(["fsck", root]) == 0
        assert "no damage found" in capsys.readouterr().out

    def test_fsck_exploration_store(self, capsys, tmp_path):
        assert main(["explore", "--game", "sg", "--n", "3",
                     "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(tmp_path / "explore-sg-sum-n3")]) == 0
        assert "no damage found" in capsys.readouterr().out

    def test_fsck_without_store(self, capsys, tmp_path):
        assert main(["fsck", str(tmp_path)]) == 1
        assert "no store manifest" in capsys.readouterr().out


class TestDrainFailureReport:
    """The drain verb's parked-unit and interrupted reporting, driven by
    canned :class:`DrainReport`\\ s so the failure paths are exact."""

    def fake_drain(self, monkeypatch, report):
        from repro.registry import REGISTRY

        class FakeWorkload:
            def campaign_source(self, spec, **kwargs):
                return object()

            def __call__(self, source, root):
                return report

        monkeypatch.setattr(REGISTRY, "build",
                            lambda *a, **k: FakeWorkload())

    def test_drain_reports_parked_units_with_errors(self, capsys, tmp_path,
                                                    monkeypatch):
        from repro.experiments.fabric import DrainReport

        self.fake_drain(monkeypatch, DrainReport(
            rounds=1, units_done=1, units_failed=2, reassigned=0,
            respawned=0, workers=2, complete=False,
            failed=[
                {"id": "c-t0", "error": "ValueError: boom"},
                {"id": "c-t2", "diagnosis": "poison",
                 "error": "worker w0.1 died (exit -9) while running "
                          "this unit (crash 3)"},
            ],
        ))
        assert main(["drain", "fig7", "--results-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "2 units parked" in out
        assert "failed c-t0: ValueError: boom" in out
        assert "failed c-t2 [poison]: worker w0.1 died" in out
        assert "rerun to retry" in out

    def test_drain_reports_interruption(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.fabric import DrainReport

        self.fake_drain(monkeypatch, DrainReport(
            rounds=1, units_done=3, units_failed=0, reassigned=0,
            respawned=0, workers=2, complete=False, interrupted=True,
        ))
        assert main(["drain", "fig7", "--results-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "drain interrupted" in out and "rerun to resume" in out


class TestScenarios:
    def test_scenarios_lists_every_category(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for category in ("game", "policy", "dynamics", "topology", "metric",
                         "workload"):
            assert f"{category} (" in out
        # a few load-bearing components with their schemas
        assert "gbg" in out and "noisy" in out and "simultaneous" in out
        assert "epsilon: float required" in out
        assert "explore" in out

    def test_scenarios_single_category(self, capsys):
        assert main(["scenarios", "policy"]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "gbg" not in out

    def test_scenarios_json_dump(self, capsys):
        import json

        assert main(["scenarios", "metric", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {m["name"] for m in payload["metric"]} >= {
            "steps", "status", "social_cost", "diameter", "cost_ratio"}

    def test_scenarios_unknown_category(self, capsys):
        assert main(["scenarios", "nope"]) == 2
        assert "unknown category" in capsys.readouterr().out


class TestScenarioSpecGrid:
    """--spec FILE: grids over JSON scenarios, campaigned into the store."""

    @staticmethod
    def novel_spec_file(tmp_path):
        """A scenario impossible under the legacy API: simultaneous-round
        GBG with noisy best response on a tree, reporting social cost."""
        from repro.registry import ScenarioSpec

        spec = ScenarioSpec(
            game="gbg", policy="noisy", dynamics="simultaneous", topology="tree",
            game_params={"mode": "sum", "alpha": "n/4"},
            policy_params={"epsilon": 0.2},
            metrics=("steps", "status", "social_cost", "rounds"),
            label="noisy simultaneous gbg on trees",
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.json_str(indent=2))
        return path, spec

    def test_experiment_spec_file(self, capsys, tmp_path):
        path, _ = self.novel_spec_file(tmp_path)
        assert main(["experiment", "--spec", str(path),
                     "--trials", "2", "--n", "8"]) == 0
        assert "noisy simultaneous gbg on trees" in capsys.readouterr().out

    def test_campaign_spec_file_stores_metric_payload(self, capsys, tmp_path):
        from repro.experiments.campaign import CampaignStore, metric_payloads

        path, spec = self.novel_spec_file(tmp_path)
        base = ["campaign", "--spec", str(path), "--trials", "2", "--n", "8",
                "--jobs", "1", "--results-dir", str(tmp_path / "store")]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "ran 2 new trials" in out
        assert "noisy simultaneous gbg on trees" in out

        [root] = (tmp_path / "store").iterdir()
        records = CampaignStore(root).load_records()
        assert len(records) == 2
        payload = metric_payloads(records)
        for per_trial in payload.values():
            for metrics in per_trial.values():
                assert set(metrics) == {"social_cost", "rounds"}
                assert metrics["social_cost"] > 0

        # resume recomputes nothing, status reports completion
        assert main(base + ["--resume"]) == 0
        assert "ran 0 new trials" in capsys.readouterr().out
        assert main(base + ["--status"]) == 0
        assert "2/2 trials done" in capsys.readouterr().out

    def test_grid_commands_require_figure_or_spec(self, capsys):
        assert main(["experiment"]) == 2
        assert "figure name or --spec" in capsys.readouterr().out

    def test_missing_spec_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["experiment", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().out
        (tmp_path / "bad.json").write_text("{not json")
        assert main(["campaign", "--spec", str(tmp_path / "bad.json"),
                     "--results-dir", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_spec_grid_tag_is_order_sensitive(self, tmp_path):
        import json

        from repro.__main__ import _load_spec_grid
        from repro.registry import ScenarioSpec

        a = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1}).to_json()
        b = ScenarioSpec(game="asg", game_params={"mode": "max"},
                         topology_params={"budget": 2}).to_json()
        p1, p2 = tmp_path / "ab.json", tmp_path / "ba.json"
        p1.write_text(json.dumps([a, b]))
        p2.write_text(json.dumps([b, a]))
        assert _load_spec_grid(str(p1)).figure != _load_spec_grid(str(p2)).figure


class TestClassify:
    def test_classify_fig3_br(self, capsys):
        rc = main(["classify", "fig3", "--best-response"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weakly-acyclic=False" in out


class TestExplore:
    def test_sg_census_n4(self, capsys, tmp_path):
        rc = main(["explore", "--game", "sg", "--n", "4",
                   "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "38 states" in out
        assert "equilibria: 26" in out
        assert "cycles: none" in out
        assert (tmp_path / "explore-sg-sum-n4" / "report.json").exists()

    def test_greedy_moveset_census(self, capsys, tmp_path):
        rc = main(["explore", "--game", "bg", "--alpha", "2", "--n", "3",
                   "--moves", "greedy", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "greedy moves" in out
        assert "greedy equilibria (GE): 12" in out
        assert (tmp_path / "explore-bg-sum-n3-a2-greedy"
                / "report.json").exists()

    def test_kill_resume_byte_identical_report(self, capsys, tmp_path):
        """The acceptance criterion: a killed run resumed later writes
        the exact bytes of a straight-through run's report."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["explore", "--game", "asg", "--n", "3",
                     "--results-dir", str(a)]) == 0
        # "kill" after 5 expansions, then resume
        assert main(["explore", "--game", "asg", "--n", "3",
                     "--max-expansions", "5", "--results-dir", str(b)]) == 1
        assert main(["explore", "--game", "asg", "--n", "3", "--resume",
                     "--results-dir", str(b)]) == 0
        ra = (a / "explore-asg-sum-n3" / "report.json").read_bytes()
        rb = (b / "explore-asg-sum-n3" / "report.json").read_bytes()
        assert ra == rb

    def test_existing_store_refused_without_resume(self, capsys, tmp_path):
        args = ["explore", "--game", "asg", "--n", "3",
                "--results-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 2
        assert "pass --resume" in capsys.readouterr().out

    def test_fig3_reachable_component(self, capsys, tmp_path):
        rc = main(["explore", "--figure", "fig3", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 states" in out
        assert "best-response cycles (non-trivial SCCs): 1" in out

    def test_slices_then_drain(self, capsys, tmp_path):
        base = ["explore", "--game", "asg", "--n", "3",
                "--results-dir", str(tmp_path), "--max-expansions", "2"]
        first = main(base)
        assert first == 1  # the budget left states pending
        for _ in range(20):
            rc = main(base + ["--resume"])
            if rc == 0:
                break
        assert rc == 0

    def test_status(self, capsys, tmp_path):
        base = ["explore", "--game", "sg", "--n", "4",
                "--results-dir", str(tmp_path)]
        assert main(base + ["--status"]) == 1
        assert "no exploration under" in capsys.readouterr().out
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--status"]) == 0
        assert "complete" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_census_of_no_vertices_fails_friendly(self, capsys, tmp_path, n):
        rc = main(["explore", "--game", "sg", "--n", n,
                   "--results-dir", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert f"n={n}" in out and "negative dimensions" not in out

    @pytest.mark.parametrize("flag, value, name", [
        ("--jobs", "0", "n_jobs"),
        ("--max-expansions", "-1", "max_expansions"),
        ("--max-states", "0", "max_states"),
    ])
    def test_bad_counts_exit_2(self, capsys, tmp_path, flag, value, name):
        rc = main(["explore", "--game", "sg", "--n", "3", flag, value,
                   "--results-dir", str(tmp_path)])
        assert rc == 2
        assert name in capsys.readouterr().out
        assert not list(tmp_path.rglob("manifest.json"))

    def test_requires_n_or_figure(self, capsys, tmp_path):
        assert main(["explore", "--game", "sg",
                     "--results-dir", str(tmp_path)]) == 2
        assert "pass --n" in capsys.readouterr().out



class TestObservabilityCLI:
    """The obs verbs: ``drain --json``, ``repro top``, ``repro trace``."""

    def test_drain_json_report_then_top(self, capsys, tmp_path):
        import json

        rc = main(["drain", "fig7", "--trials", "2", "--n", "10",
                   "--workers", "2", "--results-dir", str(tmp_path),
                   "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is True
        assert report["units_done"] == 6 and report["units_failed"] == 0
        # S3: one entry per spawned worker, with its retry counts and —
        # where a reap scan saw it hold a lease — its last-heartbeat age
        stats = report["worker_stats"]
        assert len(stats) == report["workers"] + report["respawned"]
        for entry in stats.values():
            age = entry["last_heartbeat_age"]
            assert age is None or age >= 0.0
            assert entry["retries"] >= 0 and entry["crashes"] >= 0
        assert any(name.startswith("repro_")
                   for name in report["fleet_metrics"])

        # the same fleet metrics render as the one-shot console table
        root = str(tmp_path / "fig7-seed0")
        assert main(["top", root, "--once"]) == 0
        assert "repro_" in capsys.readouterr().out

    @staticmethod
    def top_values(capsys, root) -> dict:
        """``repro top --once`` on ``root`` as ``metric -> value``."""
        assert main(["top", str(root), "--once"]) == 0
        # counters and gauges; histogram lines end in a sum, not a value
        return {line.split()[0]: float(line.split()[-1])
                for line in capsys.readouterr().out.splitlines()
                if "count=" not in line}

    def test_top_on_an_exploration_drain(self, capsys, tmp_path):
        from repro.core.games import SwapGame
        from repro.experiments.fabric import Coordinator, ExplorationSource

        source = ExplorationSource(SwapGame("sum"), n=4, unit_budget=10)
        report = Coordinator(source, tmp_path, workers=2,
                             lease_ttl=10.0, poll=0.01).drain()
        assert report.complete
        values = self.top_values(capsys, tmp_path)
        assert values["repro_explore_expansions_total"] == 38

    def test_top_on_an_explore_job_store(self, capsys, tmp_path):
        from repro.service.jobs import (
            _drain_job, _source_for, parse_job_request)
        from tests.service.conftest import SG_SPEC

        request = parse_job_request({"kind": "explore", "n": 4,
                                     "spec": SG_SPEC})
        store = tmp_path / "store"
        outcome, _ = _drain_job(_source_for(request, "job-top"), store,
                                "w000000")
        assert outcome == "done"
        values = self.top_values(capsys, store)
        assert values["repro_explore_expansions_total"] == 38
        # the one planned round's frontier: every seed was pending
        assert values["repro_explore_frontier_depth"] == 38

    def test_top_without_metrics(self, capsys, tmp_path):
        assert main(["top", str(tmp_path), "--once"]) == 1
        assert "no fleet metrics" in capsys.readouterr().out

    def test_trace_summarize_table_and_json(self, capsys, tmp_path):
        import json

        from repro.obs import tracing

        path = tmp_path / "trace.jsonl"
        tracing.configure(path)
        try:
            with tracing.span("outer"):
                with tracing.span("inner"):
                    pass
        finally:
            tracing.configure(None)

        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out and "2 span names" in out

        assert main(["trace", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"]["outer"]["count"] == 1
        assert summary["total_events"] == 2

    def test_trace_summarize_empty_is_a_failure(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert "0 events" in capsys.readouterr().out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        rc = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().out
