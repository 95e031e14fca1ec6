"""Greedy-equilibrium census: the GE sinks must match an independent
brute-force single-edge-deviation scan, NE ⊆ GE must hold with and
without the memo, and reports carrying the GE field must round-trip."""

import json

import pytest

from repro.core.games import (
    EPS,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.moves import Buy, Delete, Swap
from repro.graphs import bitkernel
from repro.statespace import ExplorationReport, explore, state_key, verify_sinks
from repro.statespace.expand import ownership_matters
from tests.helpers import NoMemoBackend


def _brute_single_edge_candidates(game, net, u):
    """Every single-edge deviation of ``u``, enumerated from the raw
    adjacency/ownership matrices — independent of the games' own move
    generators, so the two can cross-validate."""
    owned = [v for v in range(net.n) if net.owner[u, v]]
    non_neigh = [v for v in range(net.n) if v != u and not net.A[u, v]]
    buys_allowed = not isinstance(game, SwapGame)
    for v in owned:
        if buys_allowed:
            yield Delete(u, v)
        for w in non_neigh:
            yield Swap(u, v, w)
    if buys_allowed:
        for v in non_neigh:
            yield Buy(u, v)


def _brute_greedy_stable(game, net):
    """Greedy stability by exhaustive copy-apply-reprice — no shared
    code with ``Game.greedy_improving_moves``."""
    for u in range(net.n):
        cur = game.current_cost(net, u)
        for mv in _brute_single_edge_candidates(game, net, u):
            trial = net.copy()
            mv.apply(trial)
            if game.current_cost(trial, u) < cur - EPS:
                return False
    return True


GAMES = [
    SwapGame("sum"),
    SwapGame("max"),
    GreedyBuyGame("sum", alpha=0.6),
    GreedyBuyGame("sum", alpha=2.0),
    BuyGame("sum", alpha=2.0),
    CooperativeBuyGame("sum", alpha=2.0),
]


class TestGreedyCensusBruteForce:
    @pytest.mark.parametrize("game", GAMES, ids=lambda g: g.cache_token())
    def test_ge_sinks_match_brute_force_scan(self, game):
        report = explore(game, n=3, moves="greedy")
        assert report.complete and not report.truncated
        verify_sinks(report, game)
        assert report.greedy_equilibria == report.equilibria
        ge = set(report.equilibria)
        graph = report.graph
        own = ownership_matters(game)  # the game's state notion
        for i in range(graph.n_states):
            net = graph.network(i)
            assert _brute_greedy_stable(game, net) == (
                state_key(net, own).hex() in ge)

    def test_ge_strictly_contains_ne_for_bg(self):
        """The gap the greedy moveset exists for: at alpha=2, n=4 the
        SUM-BG has states no single-edge deviation improves that a
        multi-edge strategy change does."""
        game = BuyGame("sum", alpha=2.0)
        best = explore(game, n=4, moves="best")
        greedy = explore(game, n=4, moves="greedy")
        ne = set(best.equilibria)
        ge = set(greedy.equilibria)
        assert ne < ge  # strict: NE ⊆ GE with a real gap
        assert best.greedy_equilibria is not None
        assert set(best.greedy_equilibria) == ge
        assert len(ne) == 62 and len(ge) == 104

    def test_ge_equals_ne_when_moves_are_greedy(self):
        """For the GBG the whole move set is single-edge, so the two
        equilibrium notions coincide and the GE field is a free copy."""
        game = GreedyBuyGame("sum", alpha=0.6)
        report = explore(game, n=3, moves="best")
        assert game.moves_are_greedy()
        assert report.greedy_equilibria == report.equilibria


class TestNeSubsetGeInvariant:
    @pytest.mark.parametrize("no_memo", [True, False], ids=["no-memo", "memo"])
    @pytest.mark.parametrize("forced_bitkernel", [False, True])
    def test_ne_subset_ge_all_backends(self, no_memo, forced_bitkernel):
        game = BuyGame("sum", alpha=1.5)
        with bitkernel.forced(forced_bitkernel):
            report = explore(game, n=4, moves="best",
                             backend=NoMemoBackend() if no_memo else None)
        assert report.greedy_equilibria is not None
        assert set(report.equilibria) <= set(report.greedy_equilibria)
        verify_sinks(report, game)  # includes the NE ⊆ GE assertion

    def test_backends_bit_identical_with_ge_field(self):
        game = BuyGame("sum", alpha=2.0)
        no_memo = explore(game, n=3, moves="greedy", backend=NoMemoBackend())
        memo = explore(game, n=3, moves="greedy")
        assert no_memo.json_bytes() == memo.json_bytes()


class TestReportRoundTrip:
    def test_ge_field_round_trips(self):
        report = explore(BuyGame("sum", alpha=2.0), n=3, moves="greedy")
        clone = ExplorationReport.from_json(json.loads(report.json_bytes()))
        assert clone.greedy_equilibria == report.greedy_equilibria
        assert clone.n_greedy_equilibria == report.n_greedy_equilibria

    def test_pre_ge_payloads_still_load(self):
        """Stores written before the GE field existed must keep
        loading; the field then reads as unknown (None)."""
        report = explore(SwapGame("sum"), n=3)
        payload = json.loads(report.json_bytes())
        payload.pop("greedy_equilibria")
        clone = ExplorationReport.from_json(payload)
        assert clone.greedy_equilibria is None
        assert clone.equilibria == report.equilibria


class TestClassifyGreedy:
    def test_classify_greedy_dynamics(self):
        from repro.statespace import classify_reachable
        from repro.graphs.generators import path_network

        game = BuyGame("sum", alpha=2.0)
        rep = classify_reachable(game, path_network(4), moves="greedy")
        assert not rep.truncated
        assert rep.n_stable >= 1
        assert rep.weakly_acyclic
