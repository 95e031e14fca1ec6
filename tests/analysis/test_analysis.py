"""Tests for the analysis layer: stability, pairwise stability, social
cost and convergence statistics."""

import itertools

import numpy as np
import pytest

from repro.analysis.equilibria import (
    greedy_unhappy_agents,
    is_greedy_stable,
    is_pairwise_stable,
    is_stable,
    stable_tree_shape,
)
from repro.analysis.social import (
    POA_EXACT_MAX_N,
    DegenerateInstanceError,
    PoASample,
    edge_cost_share,
    exact_social_optimum,
    reference_social_optimum,
    sample_price_of_anarchy,
    social_cost,
    star_social_cost,
)
from repro.analysis.stats import ConvergenceStats
from repro.core.games import EPS, BilateralGame, BuyGame, GreedyBuyGame, SwapGame
from repro.core.network import Network
from repro.graphs.generators import (
    double_star_network,
    path_network,
    star_network,
)
from tests.reference import Reference, State, enumerate_states


class TestStability:
    def test_star_stable_for_sg(self):
        assert is_stable(SwapGame("sum"), star_network(6))
        assert is_stable(SwapGame("max"), star_network(6))

    def test_path_unstable(self):
        assert not is_stable(SwapGame("sum"), path_network(6))

    def test_stable_tree_shape(self):
        assert stable_tree_shape(star_network(5)) == "star"
        assert stable_tree_shape(double_star_network(2, 2)) == "double-star"
        assert stable_tree_shape(path_network(6)) == "other"
        triangle = Network.from_owned_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert stable_tree_shape(triangle) == "not-a-tree"


class TestEquilibriumCensus:
    def test_census_lists_stable_networks(self):
        from repro.analysis.equilibria import equilibrium_census

        game = SwapGame("sum")
        nets, report = equilibrium_census(game, n=4)
        assert len(nets) == report.n_equilibria == 26
        assert all(is_stable(game, net) for net in nets)
        # the star is among the SG's stable states
        assert any(stable_tree_shape(net) == "star" for net in nets)

    def test_census_of_reachable_component(self):
        from repro.analysis.equilibria import equilibrium_census

        game = SwapGame("sum")
        nets, report = equilibrium_census(game, start=path_network(4))
        assert nets and report.complete
        assert all(is_stable(game, net) for net in nets)


class TestGreedyStability:
    def test_ne_is_ge_but_not_conversely(self):
        game = BuyGame("sum", alpha=2.0)
        star = star_network(5)
        assert is_stable(game, star) and is_greedy_stable(game, star)
        # the path is neither, and its greedy-unhappy agents are a
        # subset of its NE-unhappy agents
        path = path_network(5)
        assert not is_greedy_stable(game, path)
        assert set(greedy_unhappy_agents(game, path)) <= set(
            game.unhappy_agents(path))

    def test_greedy_census_matches_greedy_moveset_explore(self):
        from repro.analysis.equilibria import (
            equilibrium_census,
            greedy_equilibrium_census,
        )

        game = BuyGame("sum", alpha=2.0)
        nets, report = greedy_equilibrium_census(game, n=3)
        assert report.moves == "greedy"
        assert len(nets) == report.n_equilibria == 12
        assert all(is_greedy_stable(game, net) for net in nets)
        # the NE census of the same game carries the GE set for free
        ne_nets, ne_report = equilibrium_census(game, n=3)
        assert set(ne_report.greedy_equilibria) == set(report.equilibria)
        assert set(ne_report.equilibria) <= set(report.equilibria)


class TestPairwiseStability:
    def test_star_pairwise_stable_moderate_alpha(self):
        game = BilateralGame("sum", alpha=5.0)
        ok, witness = is_pairwise_stable(game, star_network(6))
        assert ok, witness

    def test_path_not_pairwise_stable_low_alpha(self):
        game = BilateralGame("sum", alpha=1.0)
        ok, witness = is_pairwise_stable(game, path_network(7))
        assert not ok
        assert "mutually beneficial" in witness

    def test_deletion_violation_detected(self):
        # triangle with huge alpha: someone wants to drop an edge
        net = Network.from_owned_edges(3, [(0, 1), (1, 2), (2, 0)])
        game = BilateralGame("sum", alpha=50.0)
        ok, witness = is_pairwise_stable(game, net)
        assert not ok and "deleting" in witness

    @pytest.mark.parametrize("mode", ["sum", "max"])
    @pytest.mark.parametrize("alpha", [1.0, 2.5, 5.0])
    def test_matches_definition_on_every_4_vertex_network(self, mode, alpha):
        """Both conditions, evaluated with the reference model's own BFS
        costs, agree with ``is_pairwise_stable`` on every connected
        4-vertex network."""
        game = BilateralGame(mode, alpha=alpha)
        ref = Reference.of(game)
        verdicts = set()
        for state in enumerate_states(4, with_ownership=False):
            base = [ref.cost(state, u) for u in range(4)]
            deletion = any(
                ref.cost(State(4, state.owned - {(u, v), (v, u)}), u) < base[u] - EPS
                for u in range(4) for v in state.neighbors(u))
            addition = False
            for u, v in itertools.combinations(range(4), 2):
                if v in state.neighbors(u):
                    continue
                added = State(4, state.owned | {(u, v)})
                cu, cv = ref.cost(added, u), ref.cost(added, v)
                if ((cu < base[u] - EPS and cv <= base[v] + EPS)
                        or (cv < base[v] - EPS and cu <= base[u] + EPS)):
                    addition = True
            stable = not deletion and not addition
            net = Network.from_owned_edges(4, sorted(state.owned))
            assert is_pairwise_stable(game, net)[0] == stable, sorted(state.owned)
            verdicts.add(stable)
        assert verdicts == {True, False}

    def test_fig16_g1_not_pairwise_stable(self):
        """fig16's G1 cycles, so it cannot be pairwise stable."""
        from repro.instances.figures import fig16_max_bilateral_cycle

        inst = fig16_max_bilateral_cycle()
        ok, _ = is_pairwise_stable(inst.game, inst.network)
        assert not ok


class TestSocialCost:
    def test_star_formula_sum(self):
        net = star_network(6)
        game = SwapGame("sum")
        assert social_cost(game, net) == star_social_cost(6, "sum")

    def test_star_formula_max(self):
        net = star_network(6)
        game = SwapGame("max")
        assert social_cost(game, net) == star_social_cost(6, "max")

    def test_star_formula_with_alpha(self):
        net = star_network(5)
        game = GreedyBuyGame("sum", alpha=2.0)
        assert social_cost(game, net) == star_social_cost(5, "sum", alpha=2.0, owner_pays=True)

    def test_degenerate(self):
        assert star_social_cost(1, "sum") == 0.0

    def test_poa_sample(self):
        game = SwapGame("sum")
        finals = [star_network(6), double_star_network(2, 2)]
        poa = sample_price_of_anarchy(game, finals)
        # n=6 gets the exact census optimum (the clique at alpha=0:
        # social cost n(n-1)=30), so the star is strictly above it
        assert poa.reference_kind == "exact" and poa.is_exact
        assert poa.reference == pytest.approx(30.0)
        assert poa.ratios[0] == pytest.approx(star_social_cost(6, "sum") / 30.0)
        assert poa.max >= poa.mean >= 1.0

    def test_poa_sample_explicit_optimum(self):
        game = SwapGame("sum")
        poa = sample_price_of_anarchy(game, [star_network(6)],
                                      optimum=star_social_cost(6, "sum"))
        assert poa.reference_kind == "given" and not poa.is_exact
        assert poa.ratios[0] == pytest.approx(1.0)

    def test_poa_empty_raises(self):
        with pytest.raises(ValueError):
            sample_price_of_anarchy(SwapGame("sum"), [])

    def test_poa_degenerate_n_raises_named_error(self):
        lonely = Network(np.zeros((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
        with pytest.raises(DegenerateInstanceError):
            sample_price_of_anarchy(GreedyBuyGame("sum", alpha=1.0), [lonely])

    def test_poa_star_bound_flagged_past_exact_range(self):
        n = POA_EXACT_MAX_N + 2
        game = GreedyBuyGame("sum", alpha=1.0)
        poa = sample_price_of_anarchy(game, [star_network(n)])
        assert poa.reference_kind == "star-bound" and not poa.is_exact
        assert poa.ratios[0] == pytest.approx(1.0)

    def test_edge_share_from_rule_not_alpha(self):
        # bilateral equal-split: both endpoints pay alpha/2, so the
        # per-edge total is alpha — the old alpha>0 heuristic happened to
        # agree here, but the share must come from the rule
        assert edge_cost_share(BilateralGame("sum", alpha=3.0)) == 1.0
        assert edge_cost_share(SwapGame("sum")) == 0.0
        assert edge_cost_share(GreedyBuyGame("sum", alpha=2.0)) == 1.0
        star = star_social_cost(5, "sum", alpha=3.0, edge_share=1.0)
        assert star == star_social_cost(5, "sum", alpha=3.0, owner_pays=True)

    def test_exact_optimum_alpha_tradeoff(self):
        # alpha < 2: the clique undercuts every tree; alpha > 2: trees win
        cheap = exact_social_optimum(GreedyBuyGame("sum", alpha=0.5), 4)
        assert cheap == pytest.approx(6 * 0.5 + 12)  # clique: 6 edges, dist 12
        dear = exact_social_optimum(GreedyBuyGame("sum", alpha=10.0), 4)
        assert dear == pytest.approx(3 * 10.0 + star_social_cost(4, "sum"))

    def test_exact_optimum_respects_host_graph(self):
        # host = path 0-1-2-3: no spanning star exists, and the only
        # connected subgraph is the path itself
        n = 4
        host = np.zeros((n, n), dtype=bool)
        for u in range(n - 1):
            host[u, u + 1] = host[u + 1, u] = True
        game = GreedyBuyGame("sum", alpha=1.0, host=host)
        path = path_network(n)
        ref, kind = reference_social_optimum(game, n)
        assert kind == "exact"
        assert ref == pytest.approx(game.social_cost(path))
        assert ref > star_social_cost(n, "sum", alpha=1.0, edge_share=1.0)


class TestConvergenceStats:
    def test_accumulates(self):
        s = ConvergenceStats()
        for x in (5, 10, 15):
            s.add(x, True)
        s.add(999, False)
        assert s.trials == 4 and s.non_converged == 1
        assert s.mean == 10 and s.max == 15 and s.min == 5

    def test_empty(self):
        s = ConvergenceStats()
        assert np.isnan(s.mean) and s.max == 0
        assert np.isnan(s.percentile(95))

    def test_as_dict(self):
        s = ConvergenceStats()
        s.add(4, True)
        d = s.as_dict()
        assert d["trials"] == 1 and d["mean"] == 4 and d["non_converged"] == 0
