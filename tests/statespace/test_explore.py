"""The response-graph explorer: census correctness and the acceptance
criteria (brute-force-identical equilibria with and without the memo,
the fig3 adversarial cycle as an SCC, deterministic reports)."""

import json

import pytest

from repro.analysis.equilibria import is_stable
from repro.core.games import (
    AsymmetricSwapGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.moves import move_from_dict
from repro.graphs import adjacency as adj
from repro.graphs import bitkernel, incremental
from repro.instances.figures import fig3_sum_asg_cycle
from repro.statespace import (
    ExplorationReport,
    enumerate_states,
    explore,
    verify_sinks,
)
from repro.statespace.encode import state_key_hex
from tests.helpers import NoMemoBackend


class TestEnumeration:
    def test_topology_only_counts_connected_graphs(self):
        # connected labelled graphs on 4 vertices: 38 (OEIS A001187)
        assert len(enumerate_states(4, with_ownership=False)) == 38

    def test_ownership_enumeration_n3(self):
        # triangle: 2^3 ownerships; each of the 3 paths: 2^2
        assert len(enumerate_states(3, with_ownership=True)) == 8 + 3 * 4

    def test_disconnected_included_on_request(self):
        states = enumerate_states(3, with_ownership=False, connected_only=False)
        assert len(states) == 8

    def test_explosion_guard(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_states(12, with_ownership=True)


class TestCensus:
    """`repro explore --game sg --n 4` semantics, as a library call."""

    @pytest.mark.parametrize("no_memo", [True, False], ids=["no-memo", "memo"])
    @pytest.mark.parametrize("game", [SwapGame("sum"), SwapGame("max"),
                                      AsymmetricSwapGame("sum")])
    def test_sinks_match_brute_force(self, game, no_memo):
        report = explore(game, n=4, backend=NoMemoBackend() if no_memo else None)
        assert report.complete and not report.truncated
        verify_sinks(report, game)

    def test_backends_bit_identical_including_bitkernel(self):
        game = SwapGame("sum")
        no_memo = explore(game, n=4, backend=NoMemoBackend())
        memo = explore(game, n=4)
        with bitkernel.forced(True):
            bit = explore(game, n=4)
        assert no_memo.json_bytes() == memo.json_bytes() == bit.json_bytes()

    def test_sg_census_shape(self):
        report = explore(SwapGame("sum"), n=4)
        assert report.n_states == 38
        # swaps preserve edge count, so every equilibrium's basin lives
        # inside its own edge-count slice; the trees (16 of the 38)
        # converge to stars (Alon et al.), denser graphs are all stable
        assert report.n_equilibria >= 4
        assert not report.cycles
        assert report.longest_improving_path is not None
        # basins cover: every state reaches some equilibrium (weakly
        # acyclic on this component) iff basin union is everything
        assert sum(report.basin_sizes.values()) >= report.n_states

    def test_gbg_census_cross_validates(self):
        game = GreedyBuyGame("sum", alpha=0.6)
        report = explore(game, n=3)
        verify_sinks(report, game)
        assert report.n_states == 20

    def test_basin_of_sink_counts_reverse_reachability(self):
        report = explore(SwapGame("sum"), n=4)
        graph = report.graph
        for eq_hex, size in report.basin_sizes.items():
            assert 1 <= size <= report.n_states
        # each equilibrium's own state is inside its basin
        for eq_hex in report.equilibria:
            assert report.basin_sizes[eq_hex] >= 1


class TestScheduling:
    """A census report is a pure function of the graph: the chunking of
    its packed passes, worker processes and expansion slices change its
    bytes in no way."""

    #: (game, n, moveset, agent filter): every block-priced game, a
    #: per-agent one (the BG's best responses) and its block-priced
    #: greedy deviations, every moveset and every agent filter
    CASES = [
        (SwapGame("sum"), 4, "best", "all"),
        (SwapGame("sum"), 5, "best", "all"),
        (AsymmetricSwapGame("sum"), 4, "best", "all"),
        (GreedyBuyGame("sum", 1.0), 4, "best", "all"),
        (CooperativeBuyGame("sum", 2.0), 4, "best", "all"),
        (BuyGame("sum", 2.0), 4, "greedy", "all"),
        (BuyGame("sum", 2.0), 3, "best", "all"),
        (GreedyBuyGame("max", 1.0), 4, "improving", "maxcost"),
        (AsymmetricSwapGame("sum"), 4, "greedy", "first_unhappy"),
        (SwapGame("max"), 4, "improving", "first_unhappy"),
    ]
    IDS = ["sg-n4", "sg-n5", "asg-n4", "gbg1-n4", "coop2-n4", "bg2-greedy-n4",
           "bg2-n3", "gbg1-max-improving-maxcost-n4", "asg-greedy-first-n4",
           "sg-max-improving-first-n4"]

    @pytest.fixture(scope="class")
    def straight(self):
        return {i: self._explore(case).json_bytes() for i, case in zip(self.IDS, self.CASES)}

    @staticmethod
    def _explore(case, **kwargs):
        game, n, moves, agent_filter = case
        return explore(game, n=n, moves=moves, agent_filter=agent_filter, **kwargs)

    @pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
    def test_small_budget_forces_many_chunks(self, case, straight, monkeypatch):
        n = self.CASES[case][1]
        passes = count_passes(monkeypatch)
        # four states of n agents per chunk, per pass and per pricing
        # block (one word of lanes)
        monkeypatch.setattr(incremental, "_PASS_ENTRIES", 4 * n ** 3)
        report = self._explore(self.CASES[case])
        assert report.json_bytes() == straight[self.IDS[case]]
        assert max(passes, default=0) <= 4
        # at n = 3 four states fill less than a word: no packed pass
        assert len(passes) > 5 or n < 4

    @pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
    def test_two_workers(self, case, straight):
        report = self._explore(self.CASES[case], n_jobs=2)
        assert report.json_bytes() == straight[self.IDS[case]]

    @pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
    def test_expansion_slices(self, case, straight, tmp_path):
        while True:
            report = self._explore(self.CASES[case], store=tmp_path, max_expansions=97)
            if report.complete:
                break
        assert report.json_bytes() == straight[self.IDS[case]]

    def test_one_packed_pass_prices_a_census(self, monkeypatch):
        """The SG n = 5 census enters the packed kernel once per BFS
        layer and never rebuilds a single ``D(G - u)``."""
        passes = count_passes(monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("a single D(G - u) rebuild")

        monkeypatch.setattr(adj, "all_pairs_distances_fast", forbidden)
        explore(SwapGame("sum"), n=5)
        assert passes == [728]


def count_passes(monkeypatch):
    """The graph count of every packed ``D(G - u)`` pass from now on."""
    passes = []
    kernel = bitkernel.deviation_distances_block

    def counting(pairs):
        passes.append(len(pairs))
        return kernel(pairs)

    monkeypatch.setattr(bitkernel, "deviation_distances_block", counting)
    return passes


class TestFig3Cycle:
    def test_adversarial_cycle_is_an_scc(self):
        inst = fig3_sum_asg_cycle()
        report = explore(inst.game, start=inst.network)
        assert report.complete
        assert report.n_equilibria == 0
        assert len(report.cycles) == 1
        cyc = report.cycles[0]
        assert len(cyc["states"]) == 4
        assert state_key_hex(inst.network) in cyc["states"]
        assert report.longest_improving_path is None  # unbounded

    def test_witness_replays_as_strictly_improving_best_responses(self):
        inst = fig3_sum_asg_cycle()
        report = explore(inst.game, start=inst.network)
        witness = report.cycles[0]["witness"]
        assert len(witness) == 4
        _assert_witness_replays(report, inst.game, witness)

    def test_improving_moveset_also_finds_the_cycle(self):
        inst = fig3_sum_asg_cycle()
        report = explore(inst.game, start=inst.network, moves="improving")
        assert any(len(c["states"]) >= 4 for c in report.cycles)


def _assert_witness_replays(report, game, witness):
    """Every witness hop must be an admissible strictly improving move
    that lands exactly on the recorded successor state."""
    from repro.statespace.encode import state_key
    from repro.statespace.expand import ownership_matters

    own = ownership_matters(game)
    graph = report.graph
    for hop in witness:
        i = graph.index[bytes.fromhex(hop["from"])]
        net = graph.network(i)
        move = move_from_dict(hop["move"])
        u = hop["agent"]
        before = game.current_cost(net, u)
        after = game.evaluate_move(net, u, move)
        assert after < before - 1e-9, f"hop not improving: {hop}"
        move.apply(net)
        assert state_key(net, own).hex() == hop["to"]
    # the walk must close: last 'to' equals first 'from'
    assert witness[-1]["to"] == witness[0]["from"]


class TestAgentFilters:
    def test_first_unhappy_graph_is_subgraph_of_all(self):
        game = AsymmetricSwapGame("sum")
        full = explore(game, n=4)
        restricted = explore(game, n=4, agent_filter="first_unhappy")
        assert restricted.n_edges <= full.n_edges
        # sinks are true equilibria under any filter: a filter only
        # chooses among unhappy agents, never silences all of them
        assert restricted.equilibria == full.equilibria

    def test_maxcost_filter_cross_validates(self):
        game = SwapGame("max")
        report = explore(game, n=4, agent_filter="maxcost")
        verify_sinks(report, game)


class TestReport:
    def test_report_json_round_trip(self):
        report = explore(SwapGame("sum"), n=4)
        payload = json.loads(report.json_bytes())
        back = ExplorationReport.from_json(payload)
        assert back.json_bytes() == report.json_bytes()
        assert back.graph is None  # the graph never serialises

    def test_truncation_is_reported(self):
        inst = fig3_sum_asg_cycle()
        report = explore(inst.game, start=inst.network, max_states=2)
        assert report.truncated
        assert report.n_states <= 2

    def test_truncation_applies_to_census_seeds_too(self):
        """The budget must bound the exhaustive census, whose states are
        all seeds, not just BFS-discovered successors."""
        report = explore(SwapGame("sum"), n=4, max_states=5)
        assert report.truncated
        assert report.n_states <= 5

    def test_seed_requires_exactly_one_of_start_and_n(self):
        game = SwapGame("sum")
        with pytest.raises(ValueError, match="exactly one"):
            explore(game)
        with pytest.raises(ValueError, match="exactly one"):
            explore(game, start=enumerate_states(3, False)[0], n=3)

    def test_bad_axes_rejected(self):
        game = SwapGame("sum")
        with pytest.raises(ValueError, match="moves"):
            explore(game, n=3, moves="bogus")
        with pytest.raises(ValueError, match="agent_filter"):
            explore(game, n=3, agent_filter="bogus")
        with pytest.raises(ValueError, match="shard"):
            explore(game, n=3, shard=(2, 2))


class TestExpanderMemo:
    def test_reexpansion_yields_identical_transitions(self):
        from repro.statespace.expand import Expander

        game = AsymmetricSwapGame("sum")
        ex = Expander(game)
        net = enumerate_states(3, with_ownership=True)[0]
        first = ex.expand(net)
        again = ex.expand(net)
        assert [(t.agent, t.move) for t in first] == [(t.agent, t.move) for t in again]
