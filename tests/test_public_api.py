"""The package's public surface: every ``__all__`` name must import.

Guards the top-level export list (the PR 3 scheduler API and the
registry/scenario API ride on ``repro.__init__``) against drift: a name
listed but not importable, or a subsystem whose ``__all__`` went stale.
"""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.core.dynamics",
    "repro.core.policies",
    "repro.registry",
    "repro.registry.base",
    "repro.registry.builtin",
    "repro.registry.scenario",
    "repro.experiments",
    "repro.experiments.runner",
    "repro.experiments.campaign",
    "repro.experiments.fabric",
    "repro.experiments.columnar",
    "repro.graphs.generators",
    "repro.testing",
    "repro.testing.faults",
    "repro.statespace",
    "repro.statespace.encode",
    "repro.statespace.expand",
    "repro.statespace.explore",
    "repro.statespace.store",
    "repro.registry.schema",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.service",
    "repro.service.protocol",
    "repro.service.jobs",
    "repro.service.stream",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_all_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} has an empty __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists unimportable names: {missing}"


def test_scheduler_api_is_top_level():
    """The PR 3 scheduler surface is exported from ``repro`` itself."""
    import repro

    for name in (
        "SimultaneousDynamics",
        "run_simultaneous_dynamics",
        "GreedyImprovementPolicy",
        "NoisyBestResponsePolicy",
        "AdversarialPolicy",
        "RoundRecord",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_statespace_api_is_top_level():
    """The statespace explorer surface is exported from ``repro``."""
    import repro

    for name in (
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
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_workload_category_registered():
    """The workload axis exists and the explorer registered into it."""
    import repro

    assert "workload" in repro.CATEGORIES
    assert repro.REGISTRY.has("workload", "explore")
    workload = repro.REGISTRY.build("workload", "explore")
    assert callable(workload)


def test_registry_api_is_top_level():
    import repro

    for name in ("REGISTRY", "ScenarioSpec", "Param"):
        assert name in repro.__all__

    spec = repro.ScenarioSpec(
        game="asg", game_params={"mode": "sum"}, topology_params={"budget": 1}
    )
    assert repro.REGISTRY.get("game", spec.game).name == "asg"


def test_service_api_is_top_level():
    """The PR 9 service surface is exported from ``repro`` itself,
    and the serve workload registered into the workload axis."""
    import repro

    for name in (
        "ServiceConfig",
        "ServiceThread",
        "ReproService",
        "JobManager",
        "QuotaPolicy",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    assert repro.REGISTRY.has("workload", "serve")


def test_obs_api_is_top_level():
    """The PR 10 observability surface is exported from ``repro``."""
    import repro

    for name in (
        "Meter",
        "Tracer",
        "configure_tracing",
        "encode_prometheus",
        "merge_snapshots",
        "span",
        "summarize_trace",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_star_import_is_clean():
    """``from repro import *`` binds exactly ``__all__``."""
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    bound = {k for k in namespace if not k.startswith("__")}
    expected = {k for k in repro.__all__ if not k.startswith("__")}
    assert bound == expected
