#!/usr/bin/env python
"""Quickstart: run selfish network creation dynamics to convergence.

Two layers of the same API:

1. the **core layer** — build a game/network/policy by hand and call
   ``run_dynamics`` (full control, used by the theory tests);
2. the **scenario layer** — declare the whole experiment as a
   registry-validated :class:`repro.ScenarioSpec`, run it with one
   call, and get a metrics record back.  The spec is JSON
   round-trippable, so the exact same object drives ``repro run``,
   ``repro experiment`` and the durable ``repro campaign`` store.

Usage::

    python examples/quickstart.py [n] [budget] [seed]
"""

import sys

from repro import (
    AsymmetricSwapGame,
    MaxCostPolicy,
    ScenarioSpec,
    random_budget_network,
    run_dynamics,
)
from repro.experiments.runner import run_scenario
from repro.graphs import adjacency as adj


def core_layer(n: int, budget: int, seed: int) -> None:
    """The hand-assembled run: explicit game, network, policy."""
    net = random_budget_network(n, budget, seed=seed)
    game = AsymmetricSwapGame("sum")

    print(f"initial network: n={net.n}, m={net.m}, "
          f"diameter={adj.diameter(net.A):.0f}, "
          f"social distance cost={game.social_cost(net):.0f}")

    result = run_dynamics(game, net, MaxCostPolicy(), seed=seed)

    print(f"\ndynamics: {result.status} after {result.steps} steps "
          f"(paper's empirical envelope: 5n = {5 * n})")
    print("first five moves:")
    for rec in result.trajectory[:5]:
        print(f"  step {rec.step:3d}: {rec.move.describe(result.final)}   "
              f"cost {rec.cost_before:.0f} -> {rec.cost_after:.0f}")

    final = result.final
    print(f"\nstable network: diameter={adj.diameter(final.A):.0f}, "
          f"social distance cost={game.social_cost(final):.0f}")
    assert game.is_stable(final), "converged state must be a pure Nash equilibrium"
    print("verified: no agent has an improving move (pure Nash equilibrium).")


def scenario_layer(n: int, budget: int, seed: int) -> None:
    """The same experiment — and one the legacy API could not express —
    as declarative, serializable scenario specs."""
    spec = ScenarioSpec(
        game="asg",
        game_params={"mode": "sum"},
        policy="maxcost",
        topology="budget",
        topology_params={"budget": budget},
        metrics=("steps", "status", "social_cost", "diameter", "cost_ratio"),
    )
    record, _ = run_scenario(spec, n, seed=seed)
    print(f"\nscenario {spec.game}/{spec.policy}/{spec.dynamics}/{spec.topology}: "
          f"{record.status} after {record.steps} steps")
    for name, value in record.extra_metrics().items():
        print(f"  {name} = {value:.2f}" if isinstance(value, float)
              else f"  {name} = {value}")

    # the spec is plain JSON — ship it to a campaign, a worker, a file
    assert ScenarioSpec.from_json_str(spec.json_str()) == spec

    # beyond the legacy surface: simultaneous rounds, noisy best
    # response, tree start — one field each
    novel = spec.with_(
        game="gbg", game_params={"mode": "sum", "alpha": "n/4"},
        policy="noisy", policy_params={"epsilon": 0.1},
        dynamics="simultaneous", topology="tree", topology_params={},
        metrics=("steps", "status", "rounds", "social_cost"),
    )
    record, _ = run_scenario(novel, n, seed=seed)
    print(f"novel scenario {novel.game}/{novel.policy}/{novel.dynamics}/"
          f"{novel.topology}: {record.status} after {record.steps} steps "
          f"in {record.rounds} rounds, "
          f"social cost {record.metrics['social_cost']:.0f}")


def statespace_layer() -> None:
    """The exhaustive census: every SG equilibrium at n = 4.

    Where the core layer samples one trajectory, the statespace layer
    enumerates the *whole* best-response transition system: all 38
    connected 4-vertex graphs, their transitions, sinks and basins.
    """
    from repro import SwapGame, decode_state, explore, verify_sinks

    game = SwapGame("sum")
    report = explore(game, n=4)
    verify_sinks(report, game)  # census == brute-force is_stable scan
    print(f"\nSG/sum n=4 census: {report.n_states} states, "
          f"{report.n_equilibria} equilibria, "
          f"longest improving path {report.longest_improving_path}")
    first = report.equilibria[0]
    idx = report.graph.index[bytes.fromhex(first)]
    print(f"  e.g. stable: {decode_state(report.graph.blobs[idx]).describe()} "
          f"(basin {report.basin_sizes[first]})")


def greedy_equilibrium_layer() -> None:
    """Greedy equilibria: stability against single-edge deviations.

    Every Nash equilibrium is a greedy equilibrium, but not vice versa:
    for the Buy Game at alpha = 2, n = 4 there are states no single
    edge-change improves that a multi-edge strategy rewrite does.  The
    ``moves="greedy"`` census walks exactly Lenzner's greedy dynamics.
    """
    from repro import BuyGame, explore, verify_sinks

    game = BuyGame("sum", alpha=2.0)
    best = explore(game, n=4)                      # NE census (+ GE scan)
    greedy = explore(game, n=4, moves="greedy")    # GE census
    verify_sinks(greedy, game)  # sinks == brute-force is_greedy_stable
    ne, ge = set(best.equilibria), set(greedy.equilibria)
    print(f"\nBG/sum alpha=2 n=4: {len(ne)} Nash equilibria inside "
          f"{len(ge)} greedy equilibria "
          f"({len(ge - ne)} states only single-edge stable)")
    assert ne < ge, "NE must sit strictly inside GE here"


def service_layer(budget: int, seed: int) -> None:
    """Simulation-as-a-service: the same campaign, but submitted to a
    live job server and watched over a websocket.

    ``ServiceThread`` runs the real asyncio server (the one behind
    ``repro serve``) on an ephemeral port; the client submits a
    registry-validated spec, streams every trial record as the worker
    writes it — byte-identical to a direct run — and fetches the final
    aggregate.
    """
    import tempfile

    from repro import ServiceConfig, ServiceThread

    spec = {"game": {"name": "asg", "params": {"mode": "sum"}},
            "topology": {"name": "budget", "params": {"budget": budget}}}
    config = ServiceConfig(state_dir=tempfile.mkdtemp(prefix="quickstart-svc-"),
                           workers=1)
    with ServiceThread(config) as svc:
        client = svc.client(token="quickstart")
        job = client.submit({"kind": "trial", "spec": spec,
                             "n": 12, "trials": 3, "seed": seed})
        print(f"\nservice job {job['id']}: submitted as {job['state']}")
        records = [item for kind, item in client.stream(job["id"])
                   if kind == "record"]
        print(f"  streamed {len(records)} trial records live, e.g. {records[0]}")
        result = client.result(job["id"])["result"]
        print(f"  final aggregate over {result['total']} trials fetched")


def observability_layer(n: int, budget: int, seed: int) -> None:
    """Telemetry riding along with a run: tracing spans + the meter.

    Everything below is permanently compiled into the dynamics, the
    distance memo and the explorer — ``configure_tracing`` merely
    switches where spans go, and the meter counts whenever ``REPRO_OBS``
    isn't 0.  The same snapshot renders as a Prometheus page on the
    service's ``GET /metrics`` and as the ``repro top`` console.
    """
    import tempfile
    from pathlib import Path

    from repro import (
        configure_tracing,
        encode_prometheus,
        run_dynamics,
        span,
        summarize_trace,
    )
    from repro.obs.metrics import DEFAULT

    trace_path = Path(tempfile.mkdtemp(prefix="quickstart-obs-")) / "trace.jsonl"
    configure_tracing(trace_path)
    before = DEFAULT.snapshot()
    try:
        with span("quickstart.observability", n=n):
            net = random_budget_network(n, budget, seed=seed)
            run_dynamics(AsymmetricSwapGame("sum"), net,
                         MaxCostPolicy(), seed=seed)
    finally:
        configure_tracing(None)

    summary = summarize_trace(trace_path)
    print(f"\ntraced {summary['total_events']} spans "
          f"(also: repro trace summarize {trace_path}):")
    for name, row in summary["spans"].items():
        print(f"  {name}: count={row['count']} total={row['total_s']:.3f}s")

    from repro.obs.metrics import diff_snapshots
    delta = diff_snapshots(DEFAULT.snapshot(), before)
    page = encode_prometheus(delta)
    sample = [l for l in page.splitlines()
              if l.startswith("repro_dynamics_runs_total")]
    print("metrics the run accrued (Prometheus text, as on GET /metrics):")
    for line in sample:
        print(f"  {line}")


def main(n: int = 30, budget: int = 2, seed: int = 7) -> None:
    core_layer(n, budget, seed)
    scenario_layer(n, budget, seed)
    statespace_layer()
    greedy_equilibrium_layer()
    service_layer(budget, seed)
    observability_layer(n, budget, seed)


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    main(*args)
