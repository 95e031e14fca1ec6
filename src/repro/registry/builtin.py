"""Built-in components: the paper's games, policies, dynamics kinds,
initial topologies and per-trial metrics, registered into
:data:`repro.registry.REGISTRY`.

Factory contracts per category (the context keywords
:meth:`Registry.build` passes through):

* ``game``     — ``factory(n, **params) -> Game`` (``n`` resolves
  "n/4"-style edge-price specs);
* ``policy``   — ``factory(**params) -> MovePolicy``;
* ``dynamics`` — ``factory(**params) -> DynamicsKind`` (see below);
* ``topology`` — ``factory(n, rng, **params) -> Network``;
* ``metric``   — ``factory(**params) -> Callable[[TrialContext], value]``
  where the returned value must be JSON-serializable (campaign rows
  carry it verbatim).

:class:`DynamicsKind` is the activation-model abstraction: sequential
(one policy-selected agent per step, the paper's Section 1.1 process)
and simultaneous (every unhappy agent per round, PR 3's
:class:`~repro.core.dynamics.SimultaneousDynamics`).  Both normalise
their outcome into a :class:`TrialOutcome` so metrics are
activation-model agnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..analysis.social import (
    DegenerateInstanceError,
    edge_cost_share,
    reference_social_optimum,
    star_social_cost,
)
from ..core.dynamics import run_dynamics, run_simultaneous_dynamics
from ..core.games import (
    AsymmetricSwapGame,
    BilateralGame,
    BuyGame,
    CooperativeBuyGame,
    Game,
    GreedyBuyGame,
    SwapGame,
)
from ..core.network import Network
from ..core.policies import (
    FirstUnhappyPolicy,
    GreedyImprovementPolicy,
    MaxCostPolicy,
    MovePolicy,
    NoisyBestResponsePolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from ..graphs.incremental import IncrementalBackend
from ..graphs.generators import (
    directed_line_network,
    path_network,
    random_budget_network,
    random_line_network,
    random_m_edge_network,
    random_tree_network,
    star_network,
)
from .base import REGISTRY, Param

__all__ = [
    "DynamicsKind",
    "TrialOutcome",
    "TrialContext",
    "ExploreWorkload",
    "TreeScanWorkload",
    "resolve_alpha_spec",
    "resolve_m_spec",
]


# ---------------------------------------------------------------------------
# Size-relative parameter specs
# ---------------------------------------------------------------------------

_FRACTION_RE = re.compile(r"^n/(\d+(?:\.\d+)?)$")
_MULTIPLE_RE = re.compile(r"^(\d+)n$")


def resolve_alpha_spec(spec: str, n: int) -> float:
    """Edge price for ``n`` agents.

    Accepts ``"n"``, ``"n/<d>"`` (any positive divisor, covering the
    paper's n/2, n/4, n/10), ``"<k>n"`` multiples, and plain numeric
    strings.
    """
    s = str(spec).strip()
    if s == "n":
        return float(n)
    frac = _FRACTION_RE.match(s)
    if frac and float(frac.group(1)) > 0:
        return n / float(frac.group(1))
    mult = _MULTIPLE_RE.match(s)
    if mult:
        return float(mult.group(1)) * n
    try:
        return float(s)
    except ValueError:
        raise ValueError(
            f"cannot resolve alpha spec {spec!r} "
            "(use 'n', 'n/<d>', '<k>n', or a number)"
        ) from None


def resolve_m_spec(spec: str, n: int) -> int:
    """Edge count for ``n`` agents: ``"n"``, ``"<k>n"``, or a plain
    integer string."""
    s = str(spec).strip()
    if s == "n":
        return n
    mult = _MULTIPLE_RE.match(s)
    if mult:
        return int(mult.group(1)) * n
    try:
        return int(s)
    except ValueError:
        raise ValueError(
            f"cannot resolve m_edges spec {spec!r} "
            "(use 'n', '<k>n', or an integer)"
        ) from None


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

_MODE_REQ = Param("mode", "str", choices=("sum", "max"),
                  doc="distance-cost aggregation", sample="sum")
_ALPHA = Param("alpha", "str", doc="edge price: 'n', 'n/<d>', '<k>n' or a number",
               sample="n/4")


@REGISTRY.register("game", "sg", params=(_MODE_REQ,),
                   doc="Swap Game: undirected single-edge swaps")
def _sg(n: int, mode: str) -> Game:
    return SwapGame(mode)


@REGISTRY.register("game", "asg", params=(_MODE_REQ,),
                   doc="Asymmetric Swap Game: owners swap their own edges")
def _asg(n: int, mode: str) -> Game:
    return AsymmetricSwapGame(mode)


@REGISTRY.register("game", "gbg", params=(_MODE_REQ, _ALPHA),
                   doc="Greedy Buy Game: buy/delete/swap single edges at price alpha")
def _gbg(n: int, mode: str, alpha: str) -> Game:
    return GreedyBuyGame(mode, alpha=resolve_alpha_spec(alpha, n))


@REGISTRY.register(
    "game", "bg",
    params=(_MODE_REQ, _ALPHA,
            Param("max_enumeration_agents", "int", default=16,
                  doc="strategy-enumeration size cap (best response is NP-hard)")),
    doc="Buy Game (Fabrikant et al.): arbitrary strategy changes, enumerated",
)
def _bg(n: int, mode: str, alpha: str, max_enumeration_agents: int) -> Game:
    return BuyGame(mode, alpha=resolve_alpha_spec(alpha, n),
                   max_enumeration_agents=max_enumeration_agents)


@REGISTRY.register(
    "game", "bilateral",
    params=(_MODE_REQ, _ALPHA,
            Param("max_enumeration_agents", "int", default=14,
                  doc="strategy-enumeration size cap")),
    doc="Bilateral equal-split Buy Game (Corbo & Parkes): consent-gated moves",
)
def _bilateral(n: int, mode: str, alpha: str, max_enumeration_agents: int) -> Game:
    return BilateralGame(mode, alpha=resolve_alpha_spec(alpha, n),
                         max_enumeration_agents=max_enumeration_agents)


@REGISTRY.register(
    "game", "coop",
    params=(_MODE_REQ, _ALPHA,
            Param("owner_share", "float", default=0.5,
                  doc="fraction of alpha the edge's builder pays; the "
                      "accepting endpoint pays the rest (Demaine et al. "
                      "cooperative cost sharing)")),
    doc="Cooperative Buy Game: GBG moves under shared edge-cost "
        "(owner_share * alpha builder / rest to the other endpoint)",
)
def _coop(n: int, mode: str, alpha: str, owner_share: float) -> Game:
    return CooperativeBuyGame(mode, alpha=resolve_alpha_spec(alpha, n),
                              owner_share=owner_share)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@REGISTRY.register(
    "policy", "maxcost",
    params=(Param("tie_break", "str", default="random", choices=("random", "index"),
                  doc="order among equal-cost unhappy agents"),),
    doc="the paper's max cost policy: highest-cost unhappy agent moves",
)
def _maxcost(tie_break: str) -> MovePolicy:
    return MaxCostPolicy(tie_break=tie_break)


@REGISTRY.register("policy", "random",
                   doc="the paper's random policy: uniform unhappy agent")
def _random_policy() -> MovePolicy:
    return RandomPolicy()


@REGISTRY.register("policy", "first_unhappy",
                   doc="smallest-index unhappy agent (deterministic)")
def _first_unhappy() -> MovePolicy:
    return FirstUnhappyPolicy()


@REGISTRY.register("policy", "round_robin",
                   doc="cyclic scan starting after the last mover")
def _round_robin() -> MovePolicy:
    return RoundRobinPolicy()


@REGISTRY.register(
    "policy", "greedy",
    params=(Param("order", "str", default="index", choices=("index", "random"),
                  doc="which unhappy agent moves"),
            Param("move_choice", "str", default="first", choices=("first", "random"),
                  doc="which of its improving moves it plays")),
    doc="greedy improvement: any improving move, not necessarily a best response",
)
def _greedy(order: str, move_choice: str) -> MovePolicy:
    return GreedyImprovementPolicy(order=order, move_choice=move_choice)


def _check_epsilon(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must be in [0, 1], got {value!r}")


def _check_noisy_base(value: str) -> None:
    # resolved lazily so policies registered after this module also
    # qualify; self-nesting is refused (it could never build anyway:
    # the wrapped base is constructed with default params only, and
    # epsilon has no default)
    if value == "noisy":
        raise ValueError("the noisy policy cannot wrap itself")
    REGISTRY.get("policy", value)


@REGISTRY.register(
    "policy", "noisy",
    params=(Param("epsilon", "float", doc="exploration probability in [0, 1]",
                  sample=0.1, check=_check_epsilon),
            Param("base", "str", default="maxcost", check=_check_noisy_base,
                  doc="registered policy explored around (built with defaults)")),
    doc="epsilon-greedy wrapper: random unhappy agent plays a random improving move",
)
def _noisy(epsilon: float, base: str) -> MovePolicy:
    return NoisyBestResponsePolicy(REGISTRY.build("policy", base), epsilon=epsilon)


# ---------------------------------------------------------------------------
# Dynamics kinds
# ---------------------------------------------------------------------------


@dataclass
class TrialOutcome:
    """Activation-model-agnostic outcome of one dynamics run.

    ``steps`` counts applied moves under both kinds (the paper's unit of
    convergence time); ``rounds`` is ``None`` for sequential runs.
    ``result`` keeps the kind-specific raw object (``RunResult`` or
    ``SimultaneousResult``) for metrics that want more detail.
    """

    status: str
    steps: int
    final: Network
    rounds: Optional[int] = None
    result: Any = None


class DynamicsKind:
    """How activation works: turns a (game, initial, policy) into a run."""

    #: whether the move policy participates (simultaneous rounds
    #: activate *every* unhappy agent, so the policy axis is inert there).
    uses_policy: bool = True

    def run(self, game: Game, net: Network, policy: MovePolicy, max_steps: int,
            rng: np.random.Generator) -> TrialOutcome:
        raise NotImplementedError


class _SequentialKind(DynamicsKind):
    uses_policy = True

    def __init__(self, move_tie_break: str, detect_cycles: bool):
        self.move_tie_break = move_tie_break
        self.detect_cycles = detect_cycles

    def run(self, game, net, policy, max_steps, rng) -> TrialOutcome:
        result = run_dynamics(
            game, net, policy, max_steps=max_steps, rng=rng,
            move_tie_break=self.move_tie_break, detect_cycles=self.detect_cycles,
            record_trajectory=False, copy_initial=False,
        )
        return TrialOutcome(result.status, result.steps, result.final, result=result)


class _SimultaneousKind(DynamicsKind):
    uses_policy = False

    def __init__(self, collision: str, move_tie_break: str, detect_cycles: bool):
        self.collision = collision
        self.move_tie_break = move_tie_break
        self.detect_cycles = detect_cycles

    def run(self, game, net, policy, max_steps, rng) -> TrialOutcome:
        # the step budget bounds *rounds* here; each round applies at
        # least one move, so max_steps rounds can never under-run the
        # sequential budget of the same cell.
        result = run_simultaneous_dynamics(
            game, net, max_rounds=max_steps, rng=rng, collision=self.collision,
            move_tie_break=self.move_tie_break, detect_cycles=self.detect_cycles,
            copy_initial=False,
        )
        return TrialOutcome(result.status, result.steps, result.final,
                            rounds=result.rounds, result=result)


_TIE = Param("move_tie_break", "str", default="random", choices=("random", "first"),
             doc="tie rule among equally good moves")


@REGISTRY.register(
    "dynamics", "sequential",
    params=(_TIE, Param("detect_cycles", "bool", default=False,
                        doc="stop with status 'cycled' on a state revisit")),
    doc="one policy-selected agent plays a best response per step (Section 1.1)",
)
def _sequential(move_tie_break: str, detect_cycles: bool) -> DynamicsKind:
    return _SequentialKind(move_tie_break, detect_cycles)


@REGISTRY.register(
    "dynamics", "simultaneous",
    params=(Param("collision", "str", default="forfeit", choices=("forfeit", "force"),
                  doc="mid-round collision rule"),
            _TIE,
            Param("detect_cycles", "bool", default=True,
                  doc="hash round-boundary states")),
    doc="every unhappy agent moves each round (the policy axis is inert)",
)
def _simultaneous(collision: str, move_tie_break: str, detect_cycles: bool) -> DynamicsKind:
    return _SimultaneousKind(collision, move_tie_break, detect_cycles)


# ---------------------------------------------------------------------------
# Initial topologies
# ---------------------------------------------------------------------------


@REGISTRY.register(
    "topology", "budget",
    params=(Param("budget", "int", doc="owned edges per agent", sample=2),),
    doc="random connected network, every agent owns exactly `budget` edges",
)
def _budget_topo(n: int, rng: np.random.Generator, budget: int) -> Network:
    return random_budget_network(n, budget, seed=rng)


@REGISTRY.register(
    "topology", "random",
    params=(Param("m_edges", "str", default=None,
                  doc="edge count: 'n', '<k>n' or an integer (default n)",
                  sample="2n"),),
    doc="random connected network with m edges (spanning tree + extras)",
)
def _random_topo(n: int, rng: np.random.Generator, m_edges: Optional[str]) -> Network:
    m = resolve_m_spec(m_edges, n) if m_edges else n
    return random_m_edge_network(n, m, seed=rng)


@REGISTRY.register("topology", "rl",
                   doc="random line: a path with uniform per-edge ownership")
def _rl_topo(n: int, rng: np.random.Generator) -> Network:
    return random_line_network(n, seed=rng)


@REGISTRY.register("topology", "dl",
                   doc="directed line: a path whose ownership forms a directed path")
def _dl_topo(n: int, rng: np.random.Generator) -> Network:
    return directed_line_network(n)


@REGISTRY.register(
    "topology", "tree",
    params=(Param("method", "str", default="attach", choices=("attach", "prufer"),
                  doc="tree sampler"),),
    doc="random tree with uniform per-edge ownership",
)
def _tree_topo(n: int, rng: np.random.Generator, method: str) -> Network:
    return random_tree_network(n, seed=rng, method=method)


@REGISTRY.register(
    "topology", "star",
    params=(Param("center_owns", "bool", default=True,
                  doc="whether the centre owns all edges"),),
    doc="star with centre 0 (the SUM-optimal tree)",
)
def _star_topo(n: int, rng: np.random.Generator, center_owns: bool) -> Network:
    return star_network(n, center_owns=center_owns)


@REGISTRY.register(
    "topology", "path",
    params=(Param("ownership", "str", default="forward",
                  choices=("forward", "backward", "alternate"),
                  doc="edge-ownership pattern along the path"),),
    doc="the deterministic path v0 - v1 - ... - v(n-1)",
)
def _path_topo(n: int, rng: np.random.Generator, ownership: str) -> Network:
    return path_network(n, ownership=ownership)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class TrialContext:
    """Everything a per-trial metric may inspect."""

    spec: Any  # ScenarioSpec (typed loosely to avoid a circular import)
    n: int
    game: Game
    #: None when the dynamics kind does not consult a policy
    #: (``DynamicsKind.uses_policy`` is False, e.g. simultaneous rounds)
    policy: Optional[MovePolicy]
    outcome: TrialOutcome
    #: the per-state memo every distance-based metric of the trial
    #: prices through, so ``D(G_final)`` is computed once per trial
    memo: IncrementalBackend = field(default_factory=IncrementalBackend, repr=False)

    @property
    def final(self) -> Network:
        return self.outcome.final


def _metric(name: str, doc: str) -> Callable:
    """Shorthand: register a parameterless metric from its ctx function."""

    def wrap(fn: Callable[[TrialContext], Any]) -> Callable:
        REGISTRY.add("metric", name, lambda: fn, doc=doc)
        return fn

    return wrap


@_metric("steps", "applied moves until the run ended")
def _m_steps(ctx: TrialContext) -> int:
    return int(ctx.outcome.steps)


@_metric("status", "'converged' | 'cycled' | 'exhausted'")
def _m_status(ctx: TrialContext) -> str:
    return ctx.outcome.status


@_metric("converged", "whether the run reached a stable network")
def _m_converged(ctx: TrialContext) -> bool:
    return ctx.outcome.status == "converged"


@_metric("rounds", "activation rounds (null for sequential dynamics)")
def _m_rounds(ctx: TrialContext) -> Optional[int]:
    return None if ctx.outcome.rounds is None else int(ctx.outcome.rounds)


@_metric("social_cost", "sum of all agents' costs in the final network")
def _m_social_cost(ctx: TrialContext) -> float:
    return float(ctx.game.social_cost(ctx.final, backend=ctx.memo))


@_metric("max_agent_cost", "worst single agent's cost in the final network")
def _m_max_agent_cost(ctx: TrialContext) -> float:
    return float(np.max(ctx.game.cost_vector(ctx.final, backend=ctx.memo)))


@_metric("diameter", "diameter of the final network (inf -> null)")
def _m_diameter(ctx: TrialContext) -> Optional[float]:
    d = float(np.max(ctx.memo.full_distances(ctx.final)))
    return None if not np.isfinite(d) else d


@_metric("edges", "edge count of the final network")
def _m_edges_metric(ctx: TrialContext) -> int:
    return int(ctx.final.m)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreWorkload:
    """Configured response-graph exploration (see
    :func:`repro.statespace.explore.explore`).

    The workload binds the transition rules (moveset, agent filter,
    state budget); the call supplies the game and the seed (a start
    network or an exhaustive size ``n``) plus execution details (store,
    shard, jobs) that never change the resulting graph.
    """

    moves: str
    agent_filter: str
    max_states: int

    def __call__(self, game: Game, **kwargs):
        from ..statespace.explore import explore  # deferred: statespace imports core

        return explore(
            game, moves=self.moves, agent_filter=self.agent_filter,
            max_states=self.max_states, **kwargs,
        )


@REGISTRY.register(
    "workload", "explore",
    params=(
        Param("moves", "str", default="best",
              choices=("best", "improving", "greedy"),
              doc="best-response graph, every strictly improving move, or "
                  "improving single-edge deviations (greedy equilibria)"),
        Param("agent_filter", "str", default="all",
              choices=("all", "maxcost", "first_unhappy"),
              doc="which unhappy agents may move (the policy-moveset axis)"),
        Param("max_states", "int", default=200_000,
              doc="state-discovery budget; beyond it the census is truncated"),
    ),
    doc="exhaustive response-graph explorer: equilibrium/cycle census via "
        "resumable frontier BFS + SCC analysis",
)
def _explore_workload(moves: str, agent_filter: str, max_states: int) -> ExploreWorkload:
    return ExploreWorkload(moves, agent_filter, max_states)


@dataclass(frozen=True)
class DrainWorkload:
    """Configured campaign-fabric drain (see
    :mod:`repro.experiments.fabric`).

    The workload binds the coordinator knobs — fleet size, lease TTL,
    work-unit granularity, retry budget; the call supplies the work
    source (built via :meth:`campaign_source` or any
    :class:`~repro.experiments.fabric.FabricSource`) and the store
    root.  None of the knobs change the drained result: aggregates are
    byte-identical however the units were scheduled.
    """

    workers: int
    lease_ttl: float
    unit_trials: int
    max_retries: int
    unit_timeout: Optional[float] = None

    def campaign_source(self, spec, **kwargs):
        """A :class:`CampaignSource` for ``spec`` with this workload's
        unit granularity (kwargs: seed, trials, n_values, ...)."""
        from ..experiments.fabric import CampaignSource  # deferred: fabric imports experiments

        kwargs.setdefault("unit_trials", self.unit_trials)
        return CampaignSource(spec, **kwargs)

    def __call__(self, source, root, **kwargs):
        from ..experiments.fabric import Coordinator

        return Coordinator(
            source, root, workers=self.workers, lease_ttl=self.lease_ttl,
            max_retries=self.max_retries, unit_timeout=self.unit_timeout,
            **kwargs,
        ).drain()


@REGISTRY.register(
    "workload", "drain",
    params=(
        Param("workers", "int", default=2,
              doc="worker processes draining the queue"),
        Param("lease_ttl", "float", default=30.0,
              doc="seconds without a heartbeat before a lease is reaped "
                  "and its unit reassigned"),
        Param("unit_trials", "int", default=8,
              doc="trial indices per campaign work unit"),
        Param("max_retries", "int", default=3,
              doc="re-assignments a unit survives before it is parked "
                  "as failed"),
        Param("unit_timeout", "float", default=0.0,
              doc="wall-clock watchdog: a unit whose self-reported "
                  "runtime exceeds this many seconds is released and "
                  "retried even while its worker heartbeats (0 = off)"),
    ),
    doc="lease-based work-queue coordinator: drains a campaign or "
        "exploration with a crash-tolerant worker fleet",
)
def _drain_workload(
    workers: int, lease_ttl: float, unit_trials: int, max_retries: int,
    unit_timeout: float,
) -> DrainWorkload:
    # 0 switches the watchdog off; the Coordinator rejects a negative one
    return DrainWorkload(workers, lease_ttl, unit_trials, max_retries,
                         unit_timeout or None)


@dataclass(frozen=True)
class TreeScanWorkload:
    """Configured tree-conjecture alpha scan (see
    :mod:`repro.experiments.frontier`).

    The workload binds the scenario knobs — which buy-game variant,
    distance mode, starting density; the call supplies execution
    details (store root, seed, trial/n overrides).  It runs the
    campaign (resumable: re-calling with the same root only fills
    missing trials) and returns the per-(alpha, n) verdict rows from
    :func:`~repro.experiments.frontier.tree_conjecture_scan`.
    """

    game: str
    mode: str
    m_edges: str
    trials: int

    def spec(self):
        """The underlying campaign :class:`FigureSpec`."""
        from ..experiments.frontier import tree_conjecture_spec  # deferred: experiments imports registry

        return tree_conjecture_spec(
            game=self.game, mode=self.mode, m_edges=self.m_edges,
            trials=self.trials,
        )

    def __call__(self, root, seed: int = 0, n_values=None, **kwargs):
        from ..experiments.campaign import run_campaign
        from ..experiments.frontier import tree_conjecture_scan

        spec = self.spec()
        run_campaign(spec, root, seed=seed, n_values=n_values, **kwargs)
        return tree_conjecture_scan(spec, root, n_values=n_values)


@REGISTRY.register(
    "workload", "tree_scan",
    params=(
        Param("game", "str", default="gbg", choices=("gbg", "bg", "coop"),
              doc="which buy-game variant's equilibria to scan"),
        Param("mode", "str", default="sum", choices=("sum", "max"),
              doc="distance aggregation of the agent cost"),
        Param("m_edges", "str", default="2n",
              doc="starting density of the random initial networks"),
        Param("trials", "int", default=12,
              doc="dynamics runs per (alpha, n) cell"),
    ),
    doc="Bilò–Lenzner tree-conjecture scan: campaign over an alpha "
        "ladder flagging non-tree equilibria per (alpha, n) cell",
)
def _tree_scan_workload(game: str, mode: str, m_edges: str,
                        trials: int) -> TreeScanWorkload:
    return TreeScanWorkload(game, mode, m_edges, trials)


@dataclass(frozen=True)
class ServeWorkload:
    """Configured simulation service (see :mod:`repro.service`).

    The workload binds the capacity knobs — worker pool size and the
    admission quotas; the call supplies deployment details (state dir,
    host, port) and blocks until SIGTERM/SIGINT drains the server.
    None of the knobs change what a job computes: results are the same
    records ``repro campaign`` / ``repro explore`` would store.
    """

    workers: int
    max_jobs: int
    max_jobs_per_client: int
    max_n: int
    max_trials: int
    max_states: int

    def config(self, state_dir, host: str = "127.0.0.1", port: int = 8440,
               **kwargs):
        """A :class:`~repro.service.server.ServiceConfig` for this workload."""
        from ..service.quotas import QuotaPolicy
        from ..service.server import ServiceConfig

        quota = QuotaPolicy(
            max_queued=self.max_jobs,
            max_jobs_per_client=self.max_jobs_per_client,
            max_n=self.max_n, max_trials=self.max_trials,
            max_states=self.max_states,
        )
        return ServiceConfig(state_dir=state_dir, host=host, port=port,
                             workers=self.workers, quota=quota, **kwargs)

    def __call__(self, state_dir, host: str = "127.0.0.1", port: int = 8440,
                 **kwargs) -> int:
        from ..service.server import serve

        return serve(self.config(state_dir, host, port, **kwargs))


@REGISTRY.register(
    "workload", "serve",
    params=(
        Param("workers", "int", default=2,
              doc="job worker processes (0 = admission-only, never runs)"),
        Param("max_jobs", "int", default=64,
              doc="queued-job admission cap; beyond it submissions get "
                  "503 + Retry-After"),
        Param("max_jobs_per_client", "int", default=8,
              doc="active jobs one client token may hold (429 beyond)"),
        Param("max_n", "int", default=200,
              doc="largest n a submitted spec may request (422 beyond)"),
        Param("max_trials", "int", default=500,
              doc="most trials one job may request (422 beyond)"),
        Param("max_states", "int", default=200_000,
              doc="largest exploration budget one job may request"),
    ),
    doc="simulation-as-a-service: async HTTP/websocket job server with "
        "durable resumable jobs and live record streaming",
)
def _serve_workload(workers: int, max_jobs: int, max_jobs_per_client: int,
                    max_n: int, max_trials: int,
                    max_states: int) -> ServeWorkload:
    return ServeWorkload(workers, max_jobs, max_jobs_per_client,
                         max_n, max_trials, max_states)


@_metric("cost_ratio",
         "final social cost / the star's social cost (the paper's PoA proxy)")
def _m_cost_ratio(ctx: TrialContext) -> Optional[float]:
    # edge accounting comes from the game's own cost rule, never from
    # the old alpha>0 guess (which mispriced swap-with-alpha variants
    # and undefined-share custom rules)
    reference = star_social_cost(
        ctx.n, ctx.game.mode.value,
        alpha=ctx.game.alpha, edge_share=edge_cost_share(ctx.game),
    )
    if reference <= 0:
        return None
    return float(ctx.game.social_cost(ctx.final, backend=ctx.memo)) / reference


@_metric("poa_ratio",
         "final social cost / reference optimum (exact census optimum at "
         "small n, star bound beyond; null for degenerate instances)")
def _m_poa_ratio(ctx: TrialContext) -> Optional[float]:
    try:
        reference, _kind = reference_social_optimum(ctx.game, ctx.n)
    except DegenerateInstanceError:
        return None
    if reference <= 0:
        return None
    ratio = float(ctx.game.social_cost(ctx.final, backend=ctx.memo)) / reference
    return ratio if np.isfinite(ratio) else None


@_metric("is_tree_equilibrium",
         "converged to a stable tree? (null while not converged — the "
         "Bilò–Lenzner tree-conjecture flag)")
def _m_is_tree_equilibrium(ctx: TrialContext) -> Optional[bool]:
    if ctx.outcome.status != "converged":
        return None
    from ..graphs.properties import is_tree

    return bool(is_tree(ctx.final.A))


@_metric("greedy_stable",
         "is the final network a greedy equilibrium (no improving "
         "single-edge deviation)? null when undecidable at this size")
def _m_greedy_stable(ctx: TrialContext) -> Optional[bool]:
    try:
        return bool(ctx.game.is_greedy_stable(ctx.final, backend=ctx.memo))
    except ValueError:
        # bilateral-style games decide greedy stability by strategy
        # enumeration, which is capped; past the cap the answer is
        # unknown, not False
        return None
