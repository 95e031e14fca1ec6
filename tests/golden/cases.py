"""Golden-trajectory case definitions and (de)serialisation.

A *golden case* is one small, fully seeded ``(game, policy, initial,
seed)`` dynamics cell whose complete trajectory — every mover, move,
operation kind and exact cost — is committed as a JSON fixture under
``tests/golden/fixtures/``.  The regression suite replays each fixture
through the per-state memo, the memo with the bitkernel forced, and the
no-memo reference backend, and asserts bit-identical reproduction,
so *any* behavioural drift in the kernels, the games, the tie-breaking
rules or the policies shows up as a fixture diff instead of silently
changing the paper's dynamics.

Fixtures are self-contained: they embed the initial network (not just
the generator recipe), so the harness keeps working even if a generator
changes — regeneration is an explicit act (``scripts/regen_golden.py``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List

from repro.core.dynamics import RunResult, run_dynamics
from repro.core.games import AsymmetricSwapGame, Game, GreedyBuyGame, SwapGame
from repro.core.moves import move_to_dict
from repro.core.network import Network
from repro.core.policies import (
    AdversarialPolicy,
    FirstUnhappyPolicy,
    GreedyImprovementPolicy,
    MaxCostPolicy,
    MovePolicy,
    NoisyBestResponsePolicy,
    RandomPolicy,
    RoundRobinPolicy,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"

__all__ = [
    "GoldenCase",
    "CASES",
    "FIXTURE_DIR",
    "build_game",
    "build_policy",
    "generate_initial",
    "run_case",
    "expected_payload",
    "write_fixture",
    "load_fixtures",
]


@dataclass(frozen=True)
class GoldenCase:
    """One golden dynamics cell (all fields JSON-plain)."""

    name: str
    game: Dict          # {"kind": "sg"|"asg"|"gbg", "mode": ..., "alpha": ...}
    policy: Dict        # {"kind": ..., policy-specific fields}
    initial: Dict       # generator recipe used at *regen* time only
    seed: int
    max_steps: int
    move_tie_break: str = "random"
    detect_cycles: bool = False


def build_game(case: GoldenCase) -> Game:
    """Instantiate the case's game."""
    spec = case.game
    kind = spec["kind"]
    if kind == "sg":
        return SwapGame(spec["mode"])
    if kind == "asg":
        return AsymmetricSwapGame(spec["mode"])
    if kind == "gbg":
        return GreedyBuyGame(spec["mode"], alpha=spec["alpha"])
    raise ValueError(f"unknown golden game kind {kind!r}")


def build_policy(case: GoldenCase) -> MovePolicy:
    """Instantiate the case's policy (fresh — policies are stateful)."""
    spec = case.policy
    kind = spec["kind"]
    if kind == "maxcost":
        return MaxCostPolicy(tie_break=spec.get("tie_break", "random"))
    if kind == "random":
        return RandomPolicy()
    if kind == "firstunhappy":
        return FirstUnhappyPolicy()
    if kind == "roundrobin":
        return RoundRobinPolicy()
    if kind == "greedy":
        return GreedyImprovementPolicy(
            order=spec.get("order", "index"),
            move_choice=spec.get("move_choice", "first"),
        )
    if kind == "noisy":
        base = build_policy(
            GoldenCase(case.name, case.game, spec["base"], case.initial,
                       case.seed, case.max_steps)
        )
        return NoisyBestResponsePolicy(base, epsilon=spec["epsilon"])
    if kind == "adversarial":
        from repro.instances.figures import ALL_INSTANCES

        inst = ALL_INSTANCES[spec["figure"]]()
        return AdversarialPolicy(
            inst.moves(),
            loop=spec.get("loop"),
            require_best_response=spec.get("require_best_response", True),
        )
    raise ValueError(f"unknown golden policy kind {kind!r}")


def generate_initial(case: GoldenCase) -> Network:
    """Build the initial network from the generator recipe (regen only —
    the committed fixtures embed the resulting network)."""
    from repro.graphs.generators import random_budget_network, random_m_edge_network

    spec = case.initial
    kind = spec["kind"]
    if kind == "budget":
        return random_budget_network(spec["n"], spec["budget"], seed=spec["seed"])
    if kind == "medges":
        return random_m_edge_network(spec["n"], spec["m"], seed=spec["seed"])
    if kind == "instance":
        from repro.instances.figures import ALL_INSTANCES

        return ALL_INSTANCES[spec["figure"]]().network
    raise ValueError(f"unknown initial kind {kind!r}")


def run_case(case: GoldenCase, initial: Network, backend=None) -> RunResult:
    """One seeded dynamics run of the case (``backend`` as in
    :func:`~repro.core.dynamics.run_dynamics`)."""
    return run_dynamics(
        build_game(case),
        initial,
        build_policy(case),
        max_steps=case.max_steps,
        seed=case.seed,
        move_tie_break=case.move_tie_break,
        detect_cycles=case.detect_cycles,
        backend=backend,
    )


def expected_payload(result: RunResult) -> Dict:
    """The exact, JSON-stable trace a fixture pins down.

    Costs are floats serialised by ``json`` (shortest-repr round-trip,
    so equality after a load is *exact*, not approximate).
    """
    return {
        "status": result.status,
        "steps": result.steps,
        "cycle_start": result.cycle_start,
        "cycle_end": result.cycle_end,
        "trajectory": [
            {
                "step": rec.step,
                "agent": rec.agent,
                "move": move_to_dict(rec.move),
                "kind": rec.kind,
                "cost_before": rec.cost_before,
                "cost_after": rec.cost_after,
            }
            for rec in result.trajectory
        ],
        "final_owned_edges": [list(e) for e in result.final.owned_edge_list()],
    }


def write_fixture(case: GoldenCase, initial: Network, result: RunResult) -> Path:
    """Write one case's fixture file (used by the regen script)."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "case": asdict(case),
        "initial": initial.to_dict(),
        "expect": expected_payload(result),
    }
    path = FIXTURE_DIR / f"{case.name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_fixtures() -> List[Dict]:
    """All committed fixtures, sorted by name."""
    return [
        json.loads(path.read_text())
        for path in sorted(FIXTURE_DIR.glob("*.json"))
    ]


#: The canonical golden grid: every game family, the classic and the new
#: activation models, SUM and MAX, plus the paper's fig3 adversarial
#: replay with live cycle detection.  Small n keeps the whole suite in
#: the smoke-test budget.
CASES: List[GoldenCase] = [
    GoldenCase(
        name="sg_sum_maxcost",
        game={"kind": "sg", "mode": "sum", "alpha": None},
        policy={"kind": "maxcost"},
        initial={"kind": "budget", "n": 14, "budget": 1, "seed": 109},
        seed=7, max_steps=200,
    ),
    GoldenCase(
        name="sg_max_firstunhappy",
        game={"kind": "sg", "mode": "max", "alpha": None},
        policy={"kind": "firstunhappy"},
        initial={"kind": "budget", "n": 14, "budget": 1, "seed": 110},
        seed=3, max_steps=200, move_tie_break="first",
    ),
    GoldenCase(
        name="asg_sum_maxcost",
        game={"kind": "asg", "mode": "sum", "alpha": None},
        policy={"kind": "maxcost"},
        initial={"kind": "budget", "n": 12, "budget": 2, "seed": 103},
        seed=11, max_steps=200,
    ),
    GoldenCase(
        name="asg_max_roundrobin",
        game={"kind": "asg", "mode": "max", "alpha": None},
        policy={"kind": "roundrobin"},
        initial={"kind": "budget", "n": 14, "budget": 1, "seed": 110},
        seed=5, max_steps=200,
    ),
    GoldenCase(
        name="gbg_sum_random",
        game={"kind": "gbg", "mode": "sum", "alpha": 3.0},
        policy={"kind": "random"},
        initial={"kind": "medges", "n": 12, "m": 24, "seed": 105},
        seed=19, max_steps=300,
    ),
    GoldenCase(
        name="gbg_max_maxcost",
        game={"kind": "gbg", "mode": "max", "alpha": 6.0},
        policy={"kind": "maxcost"},
        initial={"kind": "medges", "n": 12, "m": 18, "seed": 106},
        seed=23, max_steps=300,
    ),
    GoldenCase(
        name="asg_sum_greedy",
        game={"kind": "asg", "mode": "sum", "alpha": None},
        policy={"kind": "greedy", "order": "index", "move_choice": "first"},
        initial={"kind": "budget", "n": 12, "budget": 2, "seed": 107},
        seed=13, max_steps=300, move_tie_break="first",
    ),
    GoldenCase(
        name="gbg_sum_noisy",
        game={"kind": "gbg", "mode": "sum", "alpha": 3.0},
        policy={"kind": "noisy", "epsilon": 0.3, "base": {"kind": "maxcost"}},
        initial={"kind": "medges", "n": 12, "m": 24, "seed": 108},
        seed=29, max_steps=300,
    ),
    GoldenCase(
        name="fig3_adversarial_cycle",
        game={"kind": "asg", "mode": "sum", "alpha": None},
        policy={"kind": "adversarial", "figure": "fig3", "loop": None},
        initial={"kind": "instance", "figure": "fig3"},
        seed=0, max_steps=40, detect_cycles=True,
    ),
]
