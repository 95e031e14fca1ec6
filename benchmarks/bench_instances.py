"""Instance benches: verification cost of every paper counterexample and
the exhaustive state-space classifications behind the corollaries.

These double as an ablation for the claim table in EXPERIMENTS.md: the
timings show that the full machine-checked verification of the paper's
negative results runs in seconds.
"""

import pytest

from repro.instances.figures import ALL_INSTANCES
from repro.instances.host_graphs import fig3_host_instance, fig9_host_instance
from repro.instances.verify import verify_instance
from repro.statespace import classify_reachable

from conftest import save_summary


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_verify_instance(benchmark, name):
    inst = ALL_INSTANCES[name]()

    def check():
        rep = verify_instance(inst)
        assert rep.ok
        return rep

    rep = benchmark.pedantic(check, iterations=1, rounds=1)
    save_summary(
        f"instance_{name}",
        {"theorem": inst.theorem, "steps": rep.steps, "improvements": rep.improvements},
    )


def test_classify_fig3_br_dynamics(benchmark):
    inst = fig3_host_instance()

    def run():
        rep = classify_reachable(inst.game, inst.network, moves="best")
        assert not rep.weakly_acyclic
        return rep

    benchmark.pedantic(run, iterations=1, rounds=1)


def test_classify_fig9_improving_dynamics(benchmark):
    inst = fig9_host_instance()

    def run():
        rep = classify_reachable(inst.game, inst.network, max_states=20_000)
        assert not rep.truncated
        return rep

    benchmark.pedantic(run, iterations=1, rounds=1)
