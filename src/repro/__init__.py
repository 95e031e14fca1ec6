"""repro — reproduction of "On Dynamics in Selfish Network Creation".

Kawald & Lenzner, SPAA 2013 (arXiv:1212.4797).

The package implements the sequential-move dynamics of Network Creation
Games: the Swap Game (SG), Asymmetric Swap Game (ASG), Greedy Buy Game
(GBG), Buy Game (BG), the bilateral equal-split Buy Game and the
cooperative cost-sharing Buy Game, under SUM and MAX distance-cost,
together with greedy-equilibrium analysis, the paper's move policies,
counterexample instances (best-response cycles), convergence theory on
trees, and the full empirical study of Sections 3.4 and 4.2.

Quickstart
----------
>>> import numpy as np
>>> from repro import (AsymmetricSwapGame, MaxCostPolicy, run_dynamics,
...                    random_budget_network)
>>> net = random_budget_network(n=30, budget=2, seed=1)
>>> game = AsymmetricSwapGame("sum")
>>> result = run_dynamics(game, net, MaxCostPolicy(), seed=1)
>>> result.converged
True
"""

from .core import (
    COOP_SPLIT,
    EPS,
    AdversarialPolicy,
    AsymmetricSwapGame,
    BestResponse,
    BilateralGame,
    Buy,
    BuyGame,
    CooperativeBuyGame,
    Delete,
    DeviationEvaluator,
    DistanceMode,
    FirstUnhappyPolicy,
    Game,
    GreedyBuyGame,
    GreedyImprovementPolicy,
    MaxCostPolicy,
    MovePolicy,
    Network,
    NoisyBestResponsePolicy,
    RandomPolicy,
    RoundRecord,
    RoundRobinPolicy,
    RunResult,
    ScriptedPolicy,
    SharedEdgeCostRule,
    SimultaneousDynamics,
    SimultaneousResult,
    StepRecord,
    StrategyChange,
    Swap,
    SwapGame,
    choose_move,
    move_kind,
    run_dynamics,
    run_simultaneous_dynamics,
)
from .graphs.generators import (
    directed_line_network,
    path_network,
    random_budget_network,
    random_line_network,
    random_m_edge_network,
    random_tree_network,
    star_network,
)
from .obs import (
    Meter,
    Tracer,
    configure as configure_tracing,
    encode_prometheus,
    merge_snapshots,
    span,
    summarize_trace,
)
from .registry import (
    CATEGORIES,
    REGISTRY,
    Component,
    Param,
    Registry,
    ScenarioSpec,
)
from .statespace import (
    Expander,
    ExplorationReport,
    ExplorationStore,
    ResponseGraph,
    decode_state,
    encode_state,
    enumerate_states,
    explore,
    state_key,
    verify_sinks,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Network",
    "DistanceMode",
    "Game",
    "SwapGame",
    "AsymmetricSwapGame",
    "GreedyBuyGame",
    "BuyGame",
    "CooperativeBuyGame",
    "BilateralGame",
    "SharedEdgeCostRule",
    "COOP_SPLIT",
    "BestResponse",
    "EPS",
    "DeviationEvaluator",
    "Swap",
    "Buy",
    "Delete",
    "StrategyChange",
    "move_kind",
    "MovePolicy",
    "MaxCostPolicy",
    "RandomPolicy",
    "FirstUnhappyPolicy",
    "RoundRobinPolicy",
    "ScriptedPolicy",
    "GreedyImprovementPolicy",
    "NoisyBestResponsePolicy",
    "AdversarialPolicy",
    "run_dynamics",
    "run_simultaneous_dynamics",
    "RunResult",
    "StepRecord",
    "RoundRecord",
    "SimultaneousDynamics",
    "SimultaneousResult",
    "choose_move",
    # registry / scenario API
    "REGISTRY",
    "Registry",
    "Component",
    "Param",
    "CATEGORIES",
    "ScenarioSpec",
    # statespace explorer
    "state_key",
    "encode_state",
    "decode_state",
    "Expander",
    "ResponseGraph",
    "ExplorationReport",
    "ExplorationStore",
    "enumerate_states",
    "explore",
    "verify_sinks",
    # observability
    "Meter",
    "Tracer",
    "configure_tracing",
    "encode_prometheus",
    "merge_snapshots",
    "span",
    "summarize_trace",
    # simulation service
    "JobManager",
    "QuotaPolicy",
    "ReproService",
    "ServiceConfig",
    "ServiceThread",
    # generators
    "random_budget_network",
    "random_m_edge_network",
    "random_tree_network",
    "random_line_network",
    "directed_line_network",
    "path_network",
    "star_network",
]

#: served on first access, so that only programs which use the
#: simulation service pay for importing it
_SERVICE_NAMES = frozenset({
    "JobManager", "QuotaPolicy", "ReproService", "ServiceConfig",
    "ServiceThread",
})


def __getattr__(name: str):
    if name not in _SERVICE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import service

    return getattr(service, name)


def __dir__():
    return sorted(set(globals()) | _SERVICE_NAMES)
