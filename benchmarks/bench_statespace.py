"""Statespace-explorer benchmarks: exhaustive census wall time per cell.

Each census is timed against the naive census of the same game
(``tests.reference``, which shares no code with the explorer) and gated
on that ratio by ``benchmarks/harness.py``; run it standalone
(``python benchmarks/bench_statespace.py [--smoke|--no-write|--force-write]``)
to diff against ``BENCH_statespace.json``.

Every cell is also *verified*: the census must report the exact
state/equilibrium counts pinned here, and the naive census must count
the same (they are mathematical facts about the games, not tunables),
so a perf "win" from exploring the wrong graph can never pass.
"""

import sys

import pytest

import harness
from repro.core.games import (
    AsymmetricSwapGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.instances.figures import fig3_sum_asg_cycle
from repro.statespace import explore, verify_sinks
from tests.reference import Reference, state_of

BASELINE_PATH = harness.REPO_ROOT / "BENCH_statespace.json"

#: cell name: (game factory, explore arguments, states, equilibria).
#: The expectations pin graph identity — see the module docstring.
CENSUS = {
    "sg-sum-n4": (lambda: SwapGame("sum"), {"n": 4}, 38, 26),
    "asg-sum-n4": (lambda: AsymmetricSwapGame("sum"), {"n": 4}, 624, 552),
    "gbg-sum-n4-a1": (lambda: GreedyBuyGame("sum", alpha=1.0), {"n": 4}, 624, 528),
    "sg-sum-n5": (lambda: SwapGame("sum"), {"n": 5}, 728, 368),
    # greedy-equilibrium census: the BG's 104 GE strictly contain its 62
    # NE at alpha=2, n=4 — the gap the greedy moveset exists to measure
    "bg-sum-n4-a2-greedy": (lambda: BuyGame("sum", alpha=2.0),
                            {"n": 4, "moves": "greedy"}, 624, 104),
    "coop-sum-n4-a2": (lambda: CooperativeBuyGame("sum", alpha=2.0), {"n": 4}, 624, 528),
    "fig3-reachable": (lambda: fig3_sum_asg_cycle().game,
                       {"start": fig3_sum_asg_cycle().network}, 4, 0),
}

SMOKE = ("sg-sum-n4", "asg-sum-n4", "bg-sum-n4-a2-greedy", "fig3-reachable")

#: cells timed too near the harness's default noise floor to leave the
#: gating decision to the host, so always gated: the ownership censuses
#: at n = 4 (624 states) and the SG census at n = 5 (728 states), their
#: moves block-priced, run in 0.07-0.2 s
FLOORS = {name: 0.0 for name in ("asg-sum-n4", "bg-sum-n4-a2-greedy",
                                 "coop-sum-n4-a2", "gbg-sum-n4-a1", "sg-sum-n5")}


def census(name):
    """Explore one cell; returns ``(game, report, pins)``."""
    make_game, kwargs, states, equilibria = CENSUS[name]
    game = make_game()
    report = explore(game, **kwargs)
    assert report.complete and not report.truncated, name
    assert report.n_states == states, (
        f"{name}: {report.n_states} states, expected {states}")
    assert report.n_equilibria == equilibria, (
        f"{name}: {report.n_equilibria} equilibria, expected {equilibria}")
    return game, report, {"states": report.n_states, "edges": report.n_edges,
                          "equilibria": report.n_equilibria,
                          "cycles": len(report.cycles)}


def naive_census(name):
    """The same question asked of the naive model."""
    make_game, kwargs, states, equilibria = CENSUS[name]
    ref = Reference.of(make_game())
    if "start" in kwargs:
        # a reachable component has no naive census: price its start
        start = state_of(kwargs["start"])
        for u in range(start.n):
            ref.best_response(start, u)
        return
    total, stable = ref.census(kwargs["n"], greedy=kwargs.get("moves") == "greedy")
    assert (total, len(stable)) == (states, equilibria), f"{name}: naive census"


CELLS = [
    harness.Cell(name, lambda tmp, clock, name=name: census(name)[2],
                 lambda tmp, clock, name=name: naive_census(name),
                 smoke=name in SMOKE, floor=FLOORS.get(name, harness.MIN_GATE_SECONDS))
    for name in sorted(CENSUS)
]


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census_cell(name):
    """Identity-pinned census per cell, plus a brute-force sink check."""
    game, report, _ = census(name)
    verify_sinks(report, game)


if __name__ == "__main__":
    sys.exit(harness.main(CELLS, BASELINE_PATH))
