"""Registry mechanics: registration, lookup, schema validation, build.

The registry is the extension point of the whole experiment surface, so
these tests pin its contract: loud errors with the declared schema in
the message, type coercion for CLI/JSON string inputs, and the
"20 lines to add your own component" workflow from the docs.
"""

import pytest

from repro.registry import REGISTRY, Component, Param, Registry
from repro.registry.builtin import resolve_alpha_spec, resolve_m_spec


class TestParam:
    def test_coercion_per_kind(self):
        assert Param("k", "int").coerce("3") == 3
        assert Param("k", "float").coerce("0.5") == 0.5
        assert Param("k", "str").coerce(7) == "7"
        assert Param("k", "bool").coerce("true") is True
        assert Param("k", "bool").coerce("0") is False
        assert Param("k", "bool").coerce(False) is False

    def test_bad_values_raise_with_param_name(self):
        with pytest.raises(ValueError, match="'k' expects int"):
            Param("k", "int").coerce("abc")
        with pytest.raises(ValueError, match="'k' expects bool"):
            Param("k", "bool").coerce("maybe")
        # bools are not ints/floats (True would silently become 1)
        with pytest.raises(ValueError):
            Param("k", "int").coerce(True)

    def test_choices_enforced_after_coercion(self):
        p = Param("mode", "str", choices=("sum", "max"))
        assert p.validate("sum") == "sum"
        with pytest.raises(ValueError, match="must be one of"):
            p.validate("avg")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown param kind"):
            Param("k", "tuple")

    def test_required_and_describe(self):
        req = Param("alpha", "str")
        opt = Param("eps", "float", default=0.0)
        assert req.required and not opt.required
        assert "required" in req.describe()
        assert "default=0.0" in opt.describe()

    def test_sample_values_are_valid(self):
        """Every builtin param's sample/default passes its own validation."""
        for category in REGISTRY.categories():
            for name in REGISTRY.names(category):
                comp = REGISTRY.get(category, name)
                for p in comp.params:
                    value = p.sample_value()
                    if value is None:
                        continue
                    p.validate(value)


class TestComponentValidation:
    def component(self):
        return Component(
            "game", "demo", lambda **kw: kw,
            params=(Param("mode", "str", choices=("sum", "max")),
                    Param("alpha", "float", default=1.0)),
        )

    def test_defaults_applied_and_sorted(self):
        out = self.component().validate({"mode": "max"})
        assert out == {"alpha": 1.0, "mode": "max"}
        assert list(out) == ["alpha", "mode"]

    def test_unknown_param_lists_schema(self):
        with pytest.raises(ValueError, match="unknown parameter.*declared:"):
            self.component().validate({"mode": "sum", "beta": 2})

    def test_missing_required_raises(self):
        with pytest.raises(ValueError, match="requires parameter 'mode'"):
            self.component().validate({})

    def test_explicit_none_keeps_optional_unset(self):
        comp = Component("topology", "demo", lambda **kw: kw,
                         params=(Param("m_edges", "str", default=None),))
        assert comp.validate({"m_edges": None}) == {"m_edges": None}

    def test_canonical_params_drop_defaults(self):
        comp = self.component()
        assert comp.canonical_params({"mode": "sum", "alpha": 1.0}) == (("mode", "sum"),)
        assert comp.canonical_params({"mode": "sum", "alpha": 2.0}) == (
            ("alpha", 2.0), ("mode", "sum"))


class TestRegistry:
    def test_builtin_components_present(self):
        assert set(REGISTRY.names("game")) == {
            "sg", "asg", "gbg", "bg", "bilateral", "coop"}
        assert {"maxcost", "random", "greedy", "noisy", "first_unhappy",
                "round_robin"} <= set(REGISTRY.names("policy"))
        assert set(REGISTRY.names("dynamics")) == {"sequential", "simultaneous"}
        assert {"budget", "random", "rl", "dl", "tree", "star", "path"} <= set(
            REGISTRY.names("topology"))
        assert {"steps", "status", "converged", "rounds", "social_cost",
                "max_agent_cost", "diameter", "edges", "cost_ratio",
                "poa_ratio", "is_tree_equilibrium", "greedy_stable"} <= set(
            REGISTRY.names("metric"))
        assert {"explore", "drain", "tree_scan"} <= set(
            REGISTRY.names("workload"))

    def test_unknown_lookups_list_choices(self):
        with pytest.raises(ValueError, match="unknown game 'chess'.*registered:"):
            REGISTRY.get("game", "chess")
        with pytest.raises(ValueError, match="unknown category"):
            REGISTRY.get("flavour", "x")

    def test_duplicate_registration_refused_unless_replace(self):
        reg = Registry()
        reg.add("game", "demo", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.add("game", "demo", lambda: None)
        reg.add("game", "demo", lambda: 42, replace=True)
        assert reg.get("game", "demo").factory() == 42

    def test_register_custom_metric_end_to_end(self):
        """The docs' "add your own component in a few lines" workflow."""
        from repro.experiments.runner import run_scenario
        from repro.registry import ScenarioSpec

        @REGISTRY.register("metric", "test_leaf_count",
                           doc="leaves of the final network")
        def _leaf_count():
            return lambda ctx: int((ctx.final.A.sum(axis=1) == 1).sum())

        try:
            spec = ScenarioSpec(
                game="asg", game_params={"mode": "sum"},
                topology_params={"budget": 1},
                metrics=("steps", "status", "test_leaf_count"),
            )
            record, _ = run_scenario(spec, n=10, seed=0)
            assert isinstance(record.metrics["test_leaf_count"], int)
            assert record.metrics["test_leaf_count"] >= 0
        finally:
            REGISTRY._table("metric").pop("test_leaf_count")

    def test_describe_is_json_serializable(self):
        import json

        payload = REGISTRY.describe()
        json.dumps(payload)
        assert {c for c in payload} == set(REGISTRY.categories())
        gbg = next(c for c in payload["game"] if c["name"] == "gbg")
        assert any(p["name"] == "alpha" and p["required"] for p in gbg["params"])

    def test_build_passes_context_and_params(self):
        game = REGISTRY.build("game", "gbg", {"mode": "max", "alpha": "n/2"}, n=20)
        assert type(game).__name__ == "GreedyBuyGame"
        assert game.alpha == 10.0


class TestTrialContextMemo:
    def test_distance_metrics_share_one_apsp_of_the_final_network(self, monkeypatch):
        """Every distance metric of a trial prices through the context's
        one memo, so ``D(G_final)`` is computed once, not per metric."""
        from repro.core.games import GreedyBuyGame
        from repro.graphs import adjacency as adj
        from repro.graphs.generators import path_network
        from repro.registry.builtin import TrialContext, TrialOutcome

        calls = []

        def counted(kernel):
            def run(A, mask=None):
                calls.append(mask)
                return kernel(A, mask=mask)
            return run

        for name in ("all_pairs_distances", "all_pairs_distances_fast"):
            monkeypatch.setattr(adj, name, counted(getattr(adj, name)))
        final = path_network(6)
        ctx = TrialContext(spec=None, n=6, game=GreedyBuyGame("sum", alpha=2.0),
                           policy=None, outcome=TrialOutcome("converged", 0, final))
        values = {name: REGISTRY.build("metric", name)(ctx)
                  for name in ("diameter", "social_cost", "max_agent_cost", "cost_ratio")}
        assert values["diameter"] == 5.0
        assert values["social_cost"] == 2.0 * 5 + 2 * (15 + 11 + 9)
        assert calls == [None]


class TestSpecResolvers:
    def test_alpha_specs(self):
        assert resolve_alpha_spec("n", 40) == 40.0
        assert resolve_alpha_spec("n/4", 40) == 10.0
        assert resolve_alpha_spec("n/10", 40) == 4.0
        assert resolve_alpha_spec("2n", 40) == 80.0
        assert resolve_alpha_spec("2.5", 40) == 2.5
        with pytest.raises(ValueError, match="alpha spec"):
            resolve_alpha_spec("n^2", 40)

    def test_alpha_spec_zero_divisor_is_a_named_error(self):
        with pytest.raises(ValueError, match="cannot resolve alpha spec 'n/0'"):
            resolve_alpha_spec("n/0", 40)

    def test_m_specs(self):
        assert resolve_m_spec("n", 25) == 25
        assert resolve_m_spec("4n", 25) == 100
        assert resolve_m_spec("37", 25) == 37
        with pytest.raises(ValueError, match="m_edges spec"):
            resolve_m_spec("lots", 25)
