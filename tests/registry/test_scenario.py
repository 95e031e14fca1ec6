"""ScenarioSpec semantics: validation, JSON round-trips, the two
canonical forms, and — most load-bearing — the pinned seed digests that
keep every stored trial, golden fixture and campaign store
byte-identical.
"""

import itertools
import zlib

import pytest

from repro.experiments.asg_budget import figure7_spec, figure8_spec
from repro.experiments.campaign import cell_key
from repro.experiments.gbg import figure11_spec, figure13_spec
from repro.experiments.topology import figure12_spec, figure14_spec
from repro.registry import REGISTRY, ScenarioSpec

ALL_FIGURE_SPECS = (figure7_spec, figure8_spec, figure11_spec,
                    figure12_spec, figure13_spec, figure14_spec)


def minimal_params(category: str, name: str) -> dict:
    """Required params of a component filled with their sample values."""
    comp = REGISTRY.get(category, name)
    return {p.name: p.sample_value() for p in comp.params if p.required}


def every_combination():
    """One valid ScenarioSpec per registered component combination."""
    for game, policy, dynamics, topology in itertools.product(
        REGISTRY.names("game"), REGISTRY.names("policy"),
        REGISTRY.names("dynamics"), REGISTRY.names("topology"),
    ):
        yield ScenarioSpec(
            game=game, policy=policy, dynamics=dynamics, topology=topology,
            game_params=minimal_params("game", game),
            policy_params=minimal_params("policy", policy),
            dynamics_params=minimal_params("dynamics", dynamics),
            topology_params=minimal_params("topology", topology),
            metrics=tuple(REGISTRY.names("metric")),
        )


class TestValidation:
    def test_unknown_components_raise(self):
        with pytest.raises(ValueError, match="unknown game"):
            ScenarioSpec(game="chess")
        with pytest.raises(ValueError, match="unknown policy"):
            ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1}, policy="psychic")
        with pytest.raises(ValueError, match="unknown metric"):
            ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1}, metrics=("steps", "vibes"))

    def test_param_schema_enforced_at_construction(self):
        with pytest.raises(ValueError, match="requires parameter 'alpha'"):
            ScenarioSpec(game="gbg", game_params={"mode": "sum"},
                         topology_params={"budget": 1})
        with pytest.raises(ValueError, match="unknown parameter"):
            ScenarioSpec(game="asg", game_params={"mode": "sum", "beta": 1},
                         topology_params={"budget": 1})
        with pytest.raises(ValueError, match="must be one of"):
            ScenarioSpec(game="asg", game_params={"mode": "avg"},
                         topology_params={"budget": 1})

    def test_params_normalised_to_sorted_tuples_and_hashable(self):
        spec = ScenarioSpec(game="gbg", game_params={"mode": "sum", "alpha": "n/4"},
                            topology="random")
        assert spec.game_params == (("alpha", "n/4"), ("mode", "sum"))
        assert hash(spec)  # frozen + normalised => usable as a dict key

    def test_default_valued_params_dropped(self):
        """Explicitly passing a default is identity — digests stay stable
        when components grow new optional parameters."""
        a = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1},
                         policy_params={"tie_break": "random"})
        b = ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1})
        assert a == b and a.digest() == b.digest()

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported scenario version"):
            ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1}, version=99)

    def test_param_check_hooks_run_at_construction(self):
        """Range/registry constraints fail at spec construction, never
        inside a worker (the registry's fail-loudly guarantee)."""
        base = dict(game="asg", game_params={"mode": "sum"},
                    topology_params={"budget": 1}, policy="noisy")
        with pytest.raises(ValueError, match=r"epsilon.*\[0, 1\]"):
            ScenarioSpec(policy_params={"epsilon": 1.5}, **base)
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            ScenarioSpec(policy_params={"epsilon": 0.1, "base": "bogus"}, **base)
        with pytest.raises(ValueError, match="cannot wrap itself"):
            ScenarioSpec(policy_params={"epsilon": 0.1, "base": "noisy"}, **base)

    def test_metrics_string_rejected(self):
        with pytest.raises(ValueError, match="metrics must be a sequence"):
            ScenarioSpec(game="asg", game_params={"mode": "sum"},
                         topology_params={"budget": 1}, metrics="steps")


class TestJsonRoundTrip:
    def test_every_registered_combination_round_trips(self):
        count = 0
        for spec in every_combination():
            payload = spec.to_json()
            back = ScenarioSpec.from_json(payload)
            assert back == spec
            assert back.digest() == spec.digest()
            assert ScenarioSpec.from_json_str(spec.json_str()) == spec
            count += 1
        # 5 games x 6+ policies x 2 dynamics x 7 topologies
        assert count >= 5 * 6 * 2 * 7

    def test_payload_is_versioned(self):
        spec = next(every_combination())
        assert spec.to_json()["scenario_version"] == 1

    def test_axis_shorthand_and_defaults(self):
        spec = ScenarioSpec.from_json({
            "game": {"name": "asg", "params": {"mode": "sum"}},
            "topology": {"name": "budget", "params": {"budget": 2}},
        })
        assert spec.policy == "maxcost" and spec.dynamics == "sequential"
        assert spec.metrics == ("steps", "status")
        # string shorthand for a parameterless axis
        spec2 = ScenarioSpec.from_json({
            "game": {"name": "asg", "params": {"mode": "sum"}},
            "policy": "random",
            "topology": "rl",
        })
        assert spec2.policy == "random" and spec2.topology == "rl"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_json({"game": "asg", "flavour": "spicy"})
        with pytest.raises(ValueError, match="missing 'game'"):
            ScenarioSpec.from_json({"policy": "random"})

    def test_cli_string_params_coerce(self):
        """JSON/CLI string values land as typed params."""
        spec = ScenarioSpec.from_json({
            "game": {"name": "gbg", "params": {"mode": "sum", "alpha": "n/4"}},
            "policy": {"name": "noisy", "params": {"epsilon": "0.25"}},
            "topology": {"name": "budget", "params": {"budget": "3"}},
        })
        assert spec.params_for("policy")["epsilon"] == 0.25
        assert spec.params_for("topology")["budget"] == 3


class TestCanonicalForms:
    def test_every_figure_config_uses_the_frozen_string(self):
        for cfg in [cfg for fn in ALL_FIGURE_SPECS for cfg in fn().configs]:
            assert cfg.canonical().startswith("ExperimentConfig(game=")
            assert cfg.digest() == zlib.crc32(cfg.canonical().encode())

    def test_versioned_form_outside_the_figure_grid_surface(self):
        base = dict(game_params={"mode": "sum", "alpha": "n/4"},
                    topology_params={"budget": 1})
        outside = [
            ScenarioSpec(game="gbg", dynamics="simultaneous", **base),
            ScenarioSpec(game="gbg", policy="greedy", **base),
            ScenarioSpec(game="gbg", topology="tree",
                         game_params=base["game_params"]),
            ScenarioSpec(game="gbg", policy="maxcost",
                         policy_params={"tie_break": "index"}, **base),
        ]
        for spec in outside:
            assert spec.canonical().startswith("ScenarioSpec/v1:")


class TestPinnedDigests:
    """The byte-identity proof: the figure-grid cells canonicalize to
    the historical ``repr(ExperimentConfig(...))`` strings and digest to
    their crc32 values, so trial seeds, golden fixtures and campaign
    stores are unchanged."""

    # literal pre-redesign repr strings with their crc32 values — do NOT
    # regenerate these from code; they pin the on-disk/seed format.
    PINNED = {
        ("ExperimentConfig(game='asg', mode='sum', policy='maxcost', "
         "topology='budget', budget=1, m_edges=None, alpha=None, label='')"): 4010313425,
        ("ExperimentConfig(game='asg', mode='max', policy='random', "
         "topology='budget', budget=4, m_edges=None, alpha=None, label='')"): 4154649463,
        ("ExperimentConfig(game='gbg', mode='sum', policy='maxcost', "
         "topology='random', budget=None, m_edges='4n', alpha='n/10', "
         "label='')"): 3936470399,
        ("ExperimentConfig(game='gbg', mode='max', policy='random', "
         "topology='dl', budget=None, m_edges=None, alpha='n', label='')"): 2213102852,
    }

    CONFIGS = [
        ScenarioSpec(game="asg", policy="maxcost", game_params={"mode": "sum"},
                     topology_params={"budget": 1}),
        ScenarioSpec(game="asg", policy="random", game_params={"mode": "max"},
                     topology_params={"budget": 4}),
        ScenarioSpec(game="gbg", policy="maxcost", topology="random",
                     game_params={"mode": "sum", "alpha": "n/10"},
                     topology_params={"m_edges": "4n"}),
        ScenarioSpec(game="gbg", policy="random", topology="dl",
                     game_params={"mode": "max", "alpha": "n"}),
    ]

    def test_crc32_of_pinned_reprs(self):
        for literal, expected in self.PINNED.items():
            assert zlib.crc32(literal.encode()) == expected

    def test_canonical_strings_unchanged(self):
        assert {cfg.canonical() for cfg in self.CONFIGS} == set(self.PINNED)

    def test_digest_and_cell_key_match_pinned(self):
        for cfg in self.CONFIGS:
            pinned = self.PINNED[cfg.canonical()]
            assert cfg.digest() == pinned
            assert cell_key(cfg, 30) == f"{pinned:08x}-n30"

    def test_metrics_and_legacy_backend_key_outside_canonical_form(self):
        spec = self.CONFIGS[0]
        observed = spec.with_(metrics=("steps", "status", "social_cost",
                                       "diameter", "cost_ratio"))
        dense = ScenarioSpec.from_json({**spec.to_json(), "backend": "dense"})
        assert observed.digest() == dense.digest() == spec.digest()
        # and for genuinely new-style scenarios too
        novel = ScenarioSpec(game="gbg", policy="noisy", dynamics="simultaneous",
                             topology="tree",
                             game_params={"mode": "sum", "alpha": "n/4"},
                             policy_params={"epsilon": 0.2})
        assert novel.with_(metrics=("steps", "status", "rounds")).digest() == \
            novel.digest()
        legacy = ScenarioSpec.from_json({**novel.to_json(), "backend": "auto"})
        assert legacy == novel and legacy.digest() == novel.digest()

    def test_novel_scenarios_get_versioned_canonical_form(self):
        novel = ScenarioSpec(game="gbg", policy="noisy", dynamics="simultaneous",
                             topology="tree",
                             game_params={"mode": "sum", "alpha": "n/4"},
                             policy_params={"epsilon": 0.2})
        assert novel.canonical().startswith("ScenarioSpec/v1:")


class TestSeriesNames:
    def test_figure_series_names_unchanged(self):
        assert ScenarioSpec(game="asg", game_params={"mode": "sum"},
                            topology_params={"budget": 3}
                            ).series_name() == "k=3, max cost"
        assert ScenarioSpec(game="gbg", policy="random", topology="dl",
                            game_params={"mode": "max", "alpha": "n"}
                            ).series_name() == "a=n, dl, random"

    def test_registry_policy_names_label_their_series(self):
        """Non-maxcost policies are labelled by their registry name, not
        blanket 'random'."""
        base = dict(game="asg", game_params={"mode": "sum"},
                    topology_params={"budget": 2})
        assert ScenarioSpec(policy="greedy", **base).series_name() == "k=2, greedy"
        assert ScenarioSpec(policy="noisy", policy_params={"epsilon": 0.1},
                            **base).series_name() == "k=2, noisy"

    def test_scenario_series_name(self):
        novel = ScenarioSpec(game="gbg", policy="noisy", dynamics="simultaneous",
                             topology="tree",
                             game_params={"mode": "sum", "alpha": "n/4"},
                             policy_params={"epsilon": 0.2})
        name = novel.series_name()
        assert "noisy" in name and "simultaneous" in name and "tree" in name
        labelled = novel.with_(label="my series")
        assert labelled.series_name() == "my series"
