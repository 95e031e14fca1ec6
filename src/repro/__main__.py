"""Command line interface: ``python -m repro <command>``.

Commands
--------
``verify [figures...]``
    Machine-check the paper's counterexample instances (default: all).
``scenarios [category] [--json]``
    List every registered game / policy / dynamics kind / topology /
    metric with its parameter schema.
``run --game gbg --policy greedy --topology tree --param alpha=n/4 ...``
    One dynamics run of any registered scenario, with chosen metrics.
    Component choices and ``--param`` names come from the registry.
``experiment fig7 [--trials T] [--n 10,20,30] [--full]``
    A figure grid of the empirical study, printed as the paper's series.
    ``--spec FILE`` runs a JSON scenario (or list of scenarios) instead.
``campaign fig7 [--resume] [--max-trials N] [--jobs J] [--status] ...``
    A figure grid against the durable campaign store: interrupted or
    ``--max-trials``-capped runs resume with zero recomputation, and
    ``--jobs`` above 1 drains the grid with a worker fleet (as
    ``drain`` does) into byte-identical aggregates.  ``--spec FILE``
    campaigns over JSON scenarios; stored rows carry the scenarios'
    metric payloads.
``drain fig7 [--workers W] [--lease-ttl S] [--compact] ...``
    Drain a figure campaign with a lease-based worker fleet: units are
    claimed under heartbeat leases, crashed or stalled workers lose
    their lease and the unit is reassigned — ``kill -9`` safe, and the
    drained aggregate is byte-identical to a serial run.
``top ROOT [--once] [--interval S]``
    Console over a drain fleet's merged metrics: lease events, claim
    latency, heartbeat age, and every kernel counter the workers
    accrued, folded from the per-worker snapshot files.
``trace summarize FILE [--json]``
    Fold a trace JSONL file (``REPRO_TRACE``) into a per-span table:
    count, total, mean, and max wall time per span name.
``compact RESULTS_DIR [--prune] [--status]``
    Fold a store's JSONL records into the columnar analytics layout
    (a pure-python column-chunk format) so status and aggregation stop
    re-parsing JSONL.
``fsck RESULTS_DIR [--repair]``
    Verify the per-record checksums of a store's JSONL files and report
    exactly the damaged lines; ``--repair`` quarantines them under
    ``<root>/corrupt/`` and rewrites the record files clean.
``classify [figures...]``
    Exhaustive reachable-dynamics classification of instance states.
``explore --game sg --n 4 [--moves best] [--policy all] [--jobs J]``
    Exhaustive response-graph exploration: equilibrium and cycle census
    over every connected configuration at size n (or the reachable
    component of a paper instance via ``--figure``), priced through the
    per-state distance memo and persisted to a kill-safe store;
    ``--resume`` continues with zero recomputation and reports are
    byte-identical however the work was scheduled (``--jobs``,
    ``--max-expansions`` slices, kills).
"""

from __future__ import annotations

import argparse
import sys


def cmd_verify(args) -> int:
    """``repro verify``: machine-check the paper instances."""
    from .instances.figures import ALL_INSTANCES
    from .instances.verify import verify_instance

    names = args.figures or list(ALL_INSTANCES)
    failed = 0
    for name in names:
        if name not in ALL_INSTANCES:
            print(f"{name}: unknown figure (choose from {', '.join(ALL_INSTANCES)})")
            failed += 1
            continue
        inst = ALL_INSTANCES[name]()
        rep = verify_instance(inst)
        status = "OK " if rep.ok else "FAIL"
        print(f"{status} {name:6s} [{inst.theorem}] steps={rep.steps} "
              f"improvements={[round(x, 3) for x in rep.improvements]}")
        if not rep.ok:
            failed += 1
            for f in rep.failures:
                print("     ", f)
    return 1 if failed else 0


def cmd_scenarios(args) -> int:
    """``repro scenarios``: list/describe the registered components."""
    import json

    from .registry import REGISTRY

    if args.schema:
        from .registry.schema import scenario_json_schema

        print(json.dumps(scenario_json_schema(), indent=2, sort_keys=True))
        return 0
    categories = [args.category] if args.category else list(REGISTRY.categories())
    for c in categories:
        if c not in REGISTRY.categories():
            print(f"unknown category {c!r} (choose from {', '.join(REGISTRY.categories())})")
            return 2
    if args.json:
        full = REGISTRY.describe()
        print(json.dumps({c: full[c] for c in categories}, indent=2, sort_keys=True))
        return 0
    for category in categories:
        names = REGISTRY.names(category)
        print(f"{category} ({len(names)}):")
        for name in names:
            print(f"  {REGISTRY.get(category, name).schema_line()}")
        print()
    print("compose a scenario with: repro run --game G --policy P --topology T "
          "--dynamics D --metrics m1,m2 --param k=v")
    return 0


def _parse_param_flags(param_flags, spec_axes):
    """Route ``--param k=v`` flags to the axis that declares ``k``.

    ``spec_axes`` is ``{category: component}``.  A bare ``k=v`` goes to
    the unique axis declaring ``k``; ambiguous or unknown names must be
    qualified as ``category.k=v``.  Returns ``{category: {k: v}}``.
    """
    routed = {c: {} for c in spec_axes}
    for flag in param_flags or []:
        if "=" not in flag:
            raise ValueError(f"--param expects k=v, got {flag!r}")
        key, value = flag.split("=", 1)
        if "." in key:
            category, key = key.split(".", 1)
            if category not in spec_axes:
                raise ValueError(
                    f"--param {flag!r}: unknown axis {category!r} "
                    f"(choose from {', '.join(spec_axes)})"
                )
            routed[category][key] = value
            continue
        owners = [c for c, comp in spec_axes.items() if comp.param(key)]
        if not owners:
            declared = {
                c: [p.name for p in comp.params] for c, comp in spec_axes.items()
            }
            raise ValueError(
                f"--param {flag!r}: no selected component declares {key!r} "
                f"(declared: {declared})"
            )
        if len(owners) > 1:
            raise ValueError(
                f"--param {flag!r}: {key!r} is declared by {' and '.join(owners)}; "
                f"qualify it as {owners[0]}.{key}=..."
            )
        routed[owners[0]][key] = value
    return routed


def _spec_from_run_args(args):
    """Build the ScenarioSpec a ``repro run`` invocation describes."""
    from .registry import REGISTRY, ScenarioSpec

    # infer the paper's default start for the chosen game when no
    # topology was given: bounded budget for swap games, m-edge random
    # networks for buy games
    topology = args.topology
    if topology is None:
        topology = "budget" if args.game in ("sg", "asg") else "random"
    axes = {
        "game": REGISTRY.get("game", args.game),
        "policy": REGISTRY.get("policy", args.policy),
        "dynamics": REGISTRY.get("dynamics", args.dynamics),
        "topology": REGISTRY.get("topology", topology),
    }
    params = _parse_param_flags(args.param, axes)
    # legacy convenience flags fold into the axis params; --alpha is
    # attached only to games that price edges (swap games accepted and
    # ignored it pre-registry, so keep accepting it)
    params["game"].setdefault("mode", args.mode)
    if args.alpha is not None and axes["game"].param("alpha"):
        params["game"].setdefault("alpha", str(args.alpha))
    if topology == "budget":
        params["topology"].setdefault("budget", args.budget)
    if topology == "random":
        if args.m is not None:
            params["topology"].setdefault("m_edges", str(args.m))
        elif args.topology is None:
            params["topology"].setdefault("m_edges", str(2 * args.n))
    if args.game in ("gbg", "bg", "bilateral"):
        params["game"].setdefault("alpha", str(args.n / 4))
    metrics = tuple(args.metrics.split(",")) if args.metrics else (
        "steps", "status", "social_cost", "diameter")
    return ScenarioSpec(
        game=args.game, policy=args.policy, topology=topology,
        dynamics=args.dynamics, game_params=params["game"],
        policy_params=params["policy"], topology_params=params["topology"],
        dynamics_params=params["dynamics"], metrics=metrics,
    )


def cmd_run(args) -> int:
    """``repro run``: one dynamics run with an outcome summary."""
    from .experiments.runner import run_scenario

    from .registry import REGISTRY

    try:
        spec = _spec_from_run_args(args)
        # build the game up front: a bad edge price is a usage error
        REGISTRY.build("game", spec.game, spec.params_for("game"), n=args.n)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    dynamics = REGISTRY.build("dynamics", spec.dynamics, spec.params_for("dynamics"))
    if not dynamics.uses_policy and (spec.policy != "maxcost" or spec.policy_params):
        print(f"note: {spec.dynamics} dynamics activates every unhappy agent "
              f"itself — the {spec.policy!r} policy is not consulted")
    record, outcome = run_scenario(spec, args.n, seed=args.seed,
                                   max_steps=50 * args.n)
    rounds = f", {record.rounds} rounds" if record.rounds is not None else ""
    print(f"{spec.game}/{spec.policy}/{spec.dynamics}/{spec.topology} "
          f"n={args.n}: {record.status} after {record.steps} steps{rounds} "
          f"(5n = {5 * args.n})")
    for name, value in record.metrics.items():
        if name in ("steps", "status"):
            continue
        shown = f"{value:.3f}" if isinstance(value, float) else value
        print(f"  {name} = {shown}")
    return 0 if record.converged else 1


def _figure_specs():
    from .experiments.asg_budget import figure7_spec, figure8_spec
    from .experiments.frontier import tree_conjecture_spec
    from .experiments.gbg import figure11_spec, figure13_spec
    from .experiments.topology import figure12_spec, figure14_spec

    return {
        "fig7": figure7_spec, "fig8": figure8_spec, "fig11": figure11_spec,
        "fig12": figure12_spec, "fig13": figure13_spec, "fig14": figure14_spec,
        "tree_scan": tree_conjecture_spec,
    }


def _load_spec_grid(path: str):
    """A FigureSpec built from a scenario JSON file.

    The file holds one scenario object or a list of them (series); the
    grid's name derives from the scenarios' digests, so distinct specs
    get distinct campaign directories.
    """
    import json

    from .experiments.config import FigureSpec
    from .registry import ScenarioSpec

    import zlib

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path!r} is not valid JSON: {exc}") from None
    entries = payload if isinstance(payload, list) else [payload]
    if not entries:
        raise ValueError(f"spec file {path!r} holds no scenarios")
    specs = tuple(ScenarioSpec.from_json(p) for p in entries)
    # order-sensitive tag: the manifest records cells in series order,
    # so a reordered spec list is a different campaign directory
    joined = "\n".join(s.canonical() for s in specs)
    tag = f"{zlib.crc32(joined.encode()):08x}"
    return FigureSpec(
        figure=f"scenario-{tag}",
        title=f"scenario grid from {path}",
        configs=specs,
        n_values=(10, 20),
        trials=10,
    )


def _resolve_grid(args):
    """The (figure name, FigureSpec) a grid command refers to."""
    specs = _figure_specs()
    if getattr(args, "spec", None):
        grid = _load_spec_grid(args.spec)
        return grid.figure, grid
    if not args.figure:
        raise ValueError("pass a figure name or --spec FILE")
    if args.figure not in specs:
        raise ValueError(
            f"unknown figure {args.figure!r} (choose from {', '.join(specs)})"
        )
    spec = specs[args.figure]()
    if args.full:
        spec = spec.paper_scale()
    return args.figure, spec


def cmd_experiment(args) -> int:
    """``repro experiment``: run one figure grid and print its series."""
    from .experiments.report import format_figure
    from .experiments.runner import run_figure

    try:
        _, spec = _resolve_grid(args)
        n_values = [int(x) for x in args.n.split(",")] if args.n else None
        result = run_figure(spec, seed=args.seed, n_jobs=args.jobs,
                            trials=args.trials, n_values=n_values)
    except ValueError as exc:
        print(f"{exc}")
        return 2
    print(format_figure(result, "mean"))
    print()
    print(format_figure(result, "max"))
    return 0


def cmd_campaign(args) -> int:
    """``repro campaign``: run a figure grid against the durable store."""
    import os

    from .experiments.campaign import (
        CampaignMismatch,
        campaign_status,
        run_campaign,
    )
    from .experiments.fabric import FabricError
    from .experiments.report import format_figure

    try:
        figure, spec = _resolve_grid(args)
    except ValueError as exc:
        print(f"{exc}")
        return 2
    root = os.path.join(args.results_dir, f"{figure}-seed{args.seed}")

    if args.status:
        try:
            status = campaign_status(root)
        except FileNotFoundError:
            print(f"no campaign under {root}")
            return 1
        print(f"campaign {status['figure']} (seed {status['seed']}) in {root}: "
              f"{status['done']}/{status['total']} trials done, "
              f"{status['remaining']} remaining"
              + (" — complete" if status["complete"] else ""))
        for key, cell in status["cells"].items():
            print(f"  {key}  {cell['series']:<30} n={cell['n']:<4} "
                  f"{cell['done']}/{cell['trials']}")
        return 0

    try:
        n_values = [int(x) for x in args.n.split(",")] if args.n else None
        run = run_campaign(
            spec, root, seed=args.seed, trials=args.trials, n_values=n_values,
            n_jobs=args.jobs, max_new_trials=args.max_trials,
            resume=args.resume,
        )
    except (CampaignMismatch, FabricError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(f"campaign {figure} in {root}: ran {run.new_trials} new trials, "
          f"skipped {run.skipped_existing} already stored, "
          f"{run.remaining}/{run.total} remaining")
    if run.complete:
        print()
        print(format_figure(run.result, "mean"))
        print()
        print(format_figure(run.result, "max"))
    else:
        print("(partial aggregate — rerun with --resume to continue)")
    return 0


def cmd_drain(args) -> int:
    """``repro drain``: drain a figure campaign with a worker fleet."""
    import json
    import os

    from .experiments.campaign import CampaignMismatch
    from .experiments.fabric import FabricError
    from .experiments.report import format_figure
    from .registry import REGISTRY

    try:
        figure, spec = _resolve_grid(args)
        workload = REGISTRY.build(
            "workload", "drain",
            {"workers": args.workers, "lease_ttl": args.lease_ttl,
             "unit_trials": args.unit_trials, "max_retries": args.max_retries,
             "unit_timeout": args.unit_timeout},
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    root = os.path.join(args.results_dir, f"{figure}-seed{args.seed}")
    n_values = [int(x) for x in args.n.split(",")] if args.n else None

    try:
        source = workload.campaign_source(
            spec, seed=args.seed, trials=args.trials, n_values=n_values,
        )
        report = workload(source, root)
    except (CampaignMismatch, FabricError, ValueError) as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}, sort_keys=True))
        else:
            print(f"error: {exc}")
        return 2
    if args.json:
        # machine-readable drain report: per-worker last-heartbeat age and
        # retry counts ride along with the unit totals and fleet metrics
        print(json.dumps({
            "figure": figure,
            "root": root,
            "complete": report.complete,
            "interrupted": report.interrupted,
            "workers": report.workers,
            "units_done": report.units_done,
            "units_failed": report.units_failed,
            "reassigned": report.reassigned,
            "respawned": report.respawned,
            "worker_stats": report.worker_stats,
            "failed": report.failed,
            "fleet_metrics": report.fleet_metrics,
        }, indent=2, sort_keys=True))
        return 0 if report.complete else 1
    print(f"drained campaign {figure} in {root}: "
          f"{report.units_done} units done across {report.workers} workers"
          + (f", {report.reassigned} leases reassigned" if report.reassigned else "")
          + (f", {report.respawned} workers respawned" if report.respawned else ""))
    if args.compact and (report.complete or not report.units_failed):
        from .experiments.campaign import CampaignStore
        from .experiments.columnar import compact_store

        summary = compact_store(CampaignStore(root), prune=args.prune)
        print(f"compacted {summary['rows']} records to {summary['format']}"
              + (f", pruned {len(summary['pruned'])} JSONL files"
                 if summary["pruned"] else ""))
    if report.complete:
        print()
        print(format_figure(report.result, "mean"))
        print()
        print(format_figure(report.result, "max"))
        return 0
    if report.failed:
        print(f"(incomplete: {report.units_failed} units parked in "
              f"{os.path.join(root, 'fabric', 'failed')})")
        for unit in report.failed:
            marker = " [poison]" if unit.get("diagnosis") == "poison" else ""
            error = unit.get("error") or "no error recorded"
            print(f"  failed {unit['id']}{marker}: {error}")
        print("(fix the cause, move the units back to fabric/pending/, "
              "and rerun to retry)")
    if report.interrupted:
        print("(drain interrupted — rerun to resume from where it stopped)")
    elif not report.failed:
        print("(incomplete — rerun to drain the remaining units)")
    return 1


def _format_snapshot(snapshot) -> str:
    """One metrics snapshot as aligned ``name{labels}  value`` lines."""
    import json

    lines = []
    for name in sorted(snapshot):
        family = snapshot[name]
        for labelstr in sorted(family.get("values", {})):
            labels = json.loads(labelstr)
            suffix = ("{" + ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels else "")
            cell = family["values"][labelstr]
            if family["type"] == "histogram":
                count = cell["count"]
                mean_ms = (cell["sum"] / count * 1000.0) if count else 0.0
                shown = (f"count={count} mean={mean_ms:.2f}ms "
                         f"sum={cell['sum']:.3f}s")
            else:
                shown = f"{cell:g}"
            lines.append(f"  {name + suffix:<52} {shown}")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """``repro top``: console over the worker metrics files of a fabric
    root (a drain, an exploration, or a service job's ``store/``)."""
    import time

    from .experiments.fabric import fleet_snapshot, metrics_dir

    if args.once:
        snap = fleet_snapshot(args.root)
        if not snap:
            print(f"no fleet metrics under {metrics_dir(args.root)}")
            return 1
        print(_format_snapshot(snap))
        return 0
    try:
        while True:
            snap = fleet_snapshot(args.root)
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
            print(f"repro top — {metrics_dir(args.root)} — "
                  f"{time.strftime('%H:%M:%S')}  (ctrl-c to quit)")
            print(_format_snapshot(snap) if snap else "  (no fleet metrics yet)")
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_trace(args) -> int:
    """``repro trace summarize``: fold trace JSONL into a per-span table."""
    import json

    from .obs.tracing import summarize_trace

    try:
        summary = summarize_trace(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file!r}: {exc}")
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["spans"] else 1
    spans = summary["spans"]
    print(f"{args.file}: {summary['total_events']} events, "
          f"{len(spans)} span names"
          + (f", {summary['skipped_lines']} damaged lines skipped"
             if summary["skipped_lines"] else ""))
    if spans:
        print(f"  {'span':<28} {'count':>7} {'total':>10} "
              f"{'mean':>10} {'max':>10}")
        for name, row in spans.items():
            print(f"  {name:<28} {row['count']:>7} {row['total_s']:>9.3f}s "
                  f"{row['mean_s'] * 1000:>8.2f}ms {row['max_s'] * 1000:>8.2f}ms")
    return 0 if spans else 1


def cmd_serve(args) -> int:
    """``repro serve``: the simulation-as-a-service job server."""
    from .registry import REGISTRY

    try:
        workload = REGISTRY.build(
            "workload", "serve",
            {"workers": args.workers, "max_jobs": args.max_jobs,
             "max_jobs_per_client": args.max_jobs_per_client,
             "max_n": args.max_n, "max_trials": args.max_trials,
             "max_states": args.max_states},
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    return workload(args.state_dir, host=args.host, port=args.port,
                    banner=True)


def cmd_compact(args) -> int:
    """``repro compact``: fold a store's JSONL records into columnar."""
    import json

    from .experiments.campaign import CampaignStore
    from .experiments.columnar import ColumnarStore, compact_store
    from .statespace.store import ExplorationStore

    store = CampaignStore(args.root)
    manifest = store.load_manifest()
    if manifest is None:
        print(f"no store manifest under {args.root}")
        return 1
    if manifest.get("kind") == "statespace":
        store = ExplorationStore(args.root)

    if args.status:
        columnar = ColumnarStore(args.root)
        if not columnar.exists():
            print(f"{args.root}: not compacted")
            return 1
        state = "fresh" if columnar.fresh(store) else "stale"
        m = columnar.load_manifest()
        print(f"{args.root}: {state} {m['format']} compaction of "
              f"{m['rows']} records "
              f"({len(store.record_files())} JSONL files on disk)")
        return 0 if state == "fresh" else 1

    summary = compact_store(store, prune=args.prune)
    print(f"compacted {summary['rows']} records in {args.root} to "
          f"{summary['format']} "
          f"({summary['chunks']} chunks, {len(summary['columns'])} columns)")
    if summary["pruned"]:
        print(f"pruned {len(summary['pruned'])} JSONL files: "
              f"{json.dumps(summary['pruned'])}")
    return 0


def cmd_fsck(args) -> int:
    """``repro fsck``: verify per-record checksums in a store's JSONL files."""
    from .experiments.campaign import CampaignStore
    from .statespace.store import ExplorationStore

    store = CampaignStore(args.root)
    manifest = store.load_manifest()
    if manifest is None:
        print(f"no store manifest under {args.root}")
        return 1
    if manifest.get("kind") == "statespace":
        store = ExplorationStore(args.root)

    report = store.fsck(repair=args.repair)
    print(f"{args.root}: scanned {len(report['files'])} record files — "
          f"{report['records_ok']} records ok"
          + (f", {report['foreign']} foreign rows tolerated"
             if report["foreign"] else ""))
    if not report["damaged"]:
        print("no damage found")
        return 0
    print(f"{len(report['damaged'])} damaged lines:")
    for item in report["damaged"]:
        print(f"  {item['file']}:{item['line']}: {item['reason']}")
    if args.repair:
        print(f"quarantined {report['repaired']} lines under "
              f"{store.corrupt_dir()} and rewrote the files clean")
        return 0
    print("(rerun with --repair to quarantine the damaged lines under "
          f"{store.corrupt_dir()})")
    return 1


def cmd_classify(args) -> int:
    """``repro classify``: reachable-dynamics classification of instances."""
    from .instances.figures import ALL_INSTANCES
    from .statespace import classify_reachable

    names = args.figures or ["fig3"]
    for name in names:
        inst = ALL_INSTANCES[name]()
        rep = classify_reachable(
            inst.game, inst.network,
            moves="best" if args.best_response else "improving",
            max_states=args.max_states,
        )
        kind = "best-response" if args.best_response else "improving-move"
        print(f"{name}: {kind} dynamics from the initial state: "
              f"{rep.n_states} states, {rep.n_stable} stable, "
              f"cycle={rep.has_improvement_cycle}, "
              f"weakly-acyclic={rep.weakly_acyclic}"
              + (" [truncated]" if rep.truncated else ""))
    return 0


def _explore_game(args):
    """Build the (game, seed kwargs, tag) an ``explore`` invocation names."""
    from .registry import REGISTRY

    if args.figure:
        from .instances.figures import ALL_INSTANCES

        if args.figure not in ALL_INSTANCES:
            raise ValueError(
                f"unknown figure {args.figure!r} "
                f"(choose from {', '.join(ALL_INSTANCES)})"
            )
        inst = ALL_INSTANCES[args.figure]()
        name = type(inst.game).__name__
        return inst.game, {"start": inst.network}, f"{args.figure}", name
    if args.n is None:
        raise ValueError("pass --n for an exhaustive census, or --figure "
                         "to explore a paper instance's reachable component")
    params = {"mode": args.mode}
    game_comp = REGISTRY.get("game", args.game)
    if game_comp.param("alpha"):
        params["alpha"] = args.alpha if args.alpha is not None else str(args.n / 4)
    game = REGISTRY.build("game", args.game, params, n=args.n)
    tag = f"{args.game}-{args.mode}-n{args.n}"
    if "alpha" in params:
        tag += f"-a{params['alpha']}"
    return game, {"n": args.n}, tag, args.game


def cmd_explore(args) -> int:
    """``repro explore``: response-graph census with resume."""
    import os

    from .registry import REGISTRY
    from .statespace.store import CampaignMismatch, ExplorationStore, write_report

    try:
        game, seed_kwargs, tag, game_name = _explore_game(args)
        workload = REGISTRY.build(
            "workload", "explore",
            {"moves": args.moves, "agent_filter": args.policy,
             "max_states": args.max_states},
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.moves != "best":
        tag += f"-{args.moves}"
    if args.policy != "all":
        tag += f"-{args.policy}"
    root = os.path.join(args.results_dir, f"explore-{tag}")
    store = ExplorationStore(root)

    if args.status:
        # read counters straight off the record rows — no blob decoding,
        # no graph rebuild, no census analysis.  Seed keys are hashed
        # (not priced) so pending/complete are exact.
        if store.load_manifest() is None:
            print(f"no exploration under {root}")
            return 1
        from .statespace.explore import seed_keys

        status = store.status(key.hex() for key in seed_keys(
            game, seed_kwargs.get("start"), seed_kwargs.get("n")))
        print(f"exploration {tag} in {root}: {status['expanded']} states "
              f"expanded, {status['discovered']} discovered, "
              f"{status['pending']} pending"
              + (" — complete" if status["complete"] else ""))
        return 0

    try:
        if not args.resume and store.record_files():
            raise CampaignMismatch(
                f"{root} already holds exploration records; pass --resume to "
                "continue it, or choose a fresh --results-dir"
            )
        report = workload(
            game, store=store, n_jobs=args.jobs,
            max_expansions=args.max_expansions, game_name=game_name,
            **seed_kwargs,
        )
    except (CampaignMismatch, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    # persist before printing: a closed output pipe must not lose the report
    if report.complete:
        write_report(store, report)
    print(report.summary())
    if report.complete:
        print(f"report written to {os.path.join(root, 'report.json')}")
        if args.json:
            print(report.json_bytes().decode())
        return 0
    if report.truncated:
        print(f"(truncated: the --max-states budget ({args.max_states}) cut "
              "discovery short; resuming can never complete this store — "
              "raise --max-states and use a fresh --results-dir)")
    else:
        print(f"(partial: {report.pending} states pending — rerun with "
              "--resume)")
    return 1


def cmd_export(args) -> int:
    """``repro export``: dump an instance (network + cycle) as JSON."""
    import json

    from .instances.figures import ALL_INSTANCES

    if args.figure not in ALL_INSTANCES:
        print(f"unknown figure {args.figure!r} (choose from {', '.join(ALL_INSTANCES)})")
        return 2
    inst = ALL_INSTANCES[args.figure]()
    payload = {
        "name": inst.name,
        "theorem": inst.theorem,
        "game": type(inst.game).__name__,
        "mode": inst.game.mode.value,
        "alpha": inst.game.alpha,
        "network": inst.network.to_dict(),
        "cycle": [
            {"agent": lbl, "move": mv.describe(inst.network)} for lbl, mv in inst.cycle
        ],
        "notes": inst.notes,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _add_grid_arguments(p) -> None:
    """The shared figure-grid flags of ``experiment`` and ``campaign``."""
    p.add_argument("figure", nargs="?", default=None,
                   help="paper figure name, or omit and pass --spec")
    p.add_argument("--spec", type=str, default=None, metavar="FILE",
                   help="JSON scenario (or list of scenarios) to grid over "
                        "instead of a paper figure")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--n", type=str, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: all cores for big cells)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    from .registry import REGISTRY

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="machine-check the paper instances")
    p.add_argument("figures", nargs="*")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scenarios",
                       help="list registered games/policies/dynamics/topologies/metrics")
    p.add_argument("category", nargs="?", default=None,
                   help="restrict to one category")
    p.add_argument("--json", action="store_true",
                   help="machine-readable registry dump")
    p.add_argument("--schema", action="store_true",
                   help="emit the JSON Schema for ScenarioSpec payloads "
                        "(what POST /jobs of `repro serve` accepts)")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("run", help="one dynamics run of any registered scenario")
    p.add_argument("--game", default="asg", choices=REGISTRY.names("game"))
    p.add_argument("--mode", default="sum", choices=["sum", "max"])
    p.add_argument("--policy", default="maxcost", choices=REGISTRY.names("policy"))
    p.add_argument("--topology", default=None, choices=REGISTRY.names("topology"),
                   help="initial topology (default: budget for swap games, "
                        "random for buy games)")
    p.add_argument("--dynamics", default="sequential",
                   choices=REGISTRY.names("dynamics"))
    p.add_argument("--metrics", type=str, default=None,
                   help="comma-separated registered metrics "
                        "(default: steps,status,social_cost,diameter)")
    p.add_argument("--param", action="append", default=[], metavar="k=v",
                   help="component parameter (see `repro scenarios`); "
                        "qualify ambiguous names as axis.k=v")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="run a figure grid")
    _add_grid_arguments(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("campaign", help="resumable figure campaign")
    _add_grid_arguments(p)
    p.add_argument("--results-dir", default="results",
                   help="store root; the campaign lives in <dir>/<figure>-seed<seed>")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing store (without this flag a "
                        "store that already holds records is refused)")
    p.add_argument("--max-trials", type=int, default=None,
                   help="cap on new trials this invocation")
    p.add_argument("--status", action="store_true",
                   help="print progress and exit (runs nothing)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "drain",
        help="drain a campaign with a lease-based worker fleet (crash-safe)")
    _add_grid_arguments(p)
    p.add_argument("--results-dir", default="results",
                   help="store root; the campaign lives in <dir>/<figure>-seed<seed>")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes draining the work queue")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds without a heartbeat before a unit is "
                        "reassigned to another worker")
    p.add_argument("--unit-trials", type=int, default=8,
                   help="trial indices per work unit")
    p.add_argument("--max-retries", type=int, default=3,
                   help="reassignments a unit survives before it is parked "
                        "as failed")
    p.add_argument("--unit-timeout", type=float, default=0.0,
                   help="wall-clock watchdog: reclaim a unit whose worker "
                        "reports more than this many seconds of runtime, even "
                        "while it still heartbeats (0 = off)")
    p.add_argument("--compact", action="store_true",
                   help="fold the JSONL records into the columnar layout "
                        "after draining")
    p.add_argument("--prune", action="store_true",
                   help="with --compact: delete the JSONL files the "
                        "compaction fully covers")
    p.add_argument("--json", action="store_true",
                   help="machine-readable drain report: unit totals plus "
                        "per-worker last-heartbeat age / retry counts and "
                        "the merged fleet metrics snapshot")
    p.set_defaults(func=cmd_drain)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service job server (HTTP + websocket)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8440,
                   help="listen port (0 = ephemeral, printed on startup)")
    p.add_argument("--state-dir", default="results/service",
                   help="durable job-table root; restarting on the same dir "
                        "resumes every in-flight job")
    p.add_argument("--workers", type=int, default=2,
                   help="job worker processes")
    p.add_argument("--max-jobs", type=int, default=64,
                   help="queued-job cap (503 + Retry-After beyond)")
    p.add_argument("--max-jobs-per-client", type=int, default=8,
                   help="active jobs per client token (429 beyond)")
    p.add_argument("--max-n", type=int, default=200,
                   help="largest n one job may request (422 beyond)")
    p.add_argument("--max-trials", type=int, default=500,
                   help="most trials one job may request (422 beyond)")
    p.add_argument("--max-states", type=int, default=200_000,
                   help="largest exploration budget one job may request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="console over the merged worker metrics of any fabric root")
    p.add_argument("root", help="fabric root: a drained store (e.g. "
                                "results/fig7-seed0) or a service job's store/")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen refresh)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("trace", help="inspect obs trace files")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="fold a trace JSONL file into a per-span time table")
    ps.add_argument("file", help="trace file (what REPRO_TRACE pointed at)")
    ps.add_argument("--json", action="store_true",
                    help="machine-readable summary")
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "compact",
        help="fold a campaign/exploration store into the columnar layout")
    p.add_argument("root", help="store directory (e.g. results/fig7-seed0)")
    p.add_argument("--prune", action="store_true",
                   help="delete the JSONL files the compaction fully covers")
    p.add_argument("--status", action="store_true",
                   help="report compaction freshness and exit (writes nothing)")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser(
        "fsck",
        help="verify per-record checksums; --repair quarantines damage")
    p.add_argument("root", help="store directory (e.g. results/fig7-seed0)")
    p.add_argument("--repair", action="store_true",
                   help="move damaged lines to <root>/corrupt/ and rewrite "
                        "the record files clean")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("classify", help="reachable-dynamics classification")
    p.add_argument("figures", nargs="*")
    p.add_argument("--best-response", action="store_true")
    p.add_argument("--max-states", type=int, default=20_000)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "explore",
        help="exhaustive response-graph census (equilibria, cycles, basins)")
    p.add_argument("--game", default="sg", choices=REGISTRY.names("game"))
    p.add_argument("--mode", default="sum", choices=["sum", "max"])
    p.add_argument("--alpha", type=str, default=None,
                   help="edge price spec for priced games (default n/4)")
    p.add_argument("--n", type=int, default=None,
                   help="census over every connected configuration of size n")
    p.add_argument("--figure", default=None,
                   help="explore a paper instance's reachable component instead")
    p.add_argument("--moves", default="best",
                   choices=["best", "improving", "greedy"],
                   help="best-response graph, full better-response graph, or "
                        "single-edge greedy deviations (GE census)")
    p.add_argument("--policy", default="all",
                   choices=["all", "maxcost", "first_unhappy"],
                   help="which unhappy agents may move")
    p.add_argument("--max-states", type=int, default=200_000)
    p.add_argument("--max-expansions", type=int, default=None,
                   help="cap on new expansions this invocation")
    p.add_argument("--results-dir", default="results",
                   help="store root; the exploration lives in <dir>/explore-<tag>")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing store (without this flag a "
                        "store that already holds records is refused)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per frontier layer")
    p.add_argument("--status", action="store_true",
                   help="print progress and exit (expands nothing)")
    p.add_argument("--json", action="store_true",
                   help="also print the full canonical report JSON")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("export", help="dump an instance as JSON")
    p.add_argument("figure")
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `repro ... | head` closes our stdout mid-print; everything
        # durable (stores, reports) is written before printing, so the
        # work is intact — but the command's real exit code is unknown
        # here, so report the conventional 128+SIGPIPE instead of
        # masking a failure as success.  Redirect stdout to devnull so
        # the interpreter's shutdown flush cannot raise a second time.
        import os
        import signal

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(128 + signal.SIGPIPE)
