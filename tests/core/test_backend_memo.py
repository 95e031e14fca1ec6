"""The incremental backend's per-state memo.

Best responses belong to one network state, identified by its
adjacency and ownership bytes; ``D(G - u)`` is keyed on the adjacency
alone, and ``D(G)`` is derived from a held or carried ``D(G - u)``.  The
regression risk is *stale happiness*: an answer priced in one state
served in another.  These tests pin that any change of state, a remote
ownership flip included, drops the best responses; that an unchanged
state is served from the memo; that the backend never holds more than
one budget-bounded pass of ``D(G - u)``; and that every derived ``D(G)``
equals the boolean-matmul oracle.
"""

import numpy as np
import pytest

from repro.core.dynamics import run_dynamics
from repro.core.games import (
    AsymmetricSwapGame,
    BilateralGame,
    BuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.moves import Buy
from repro.core.network import Network
from repro.core.policies import (
    SCAN_BLOCK_CAP,
    FirstUnhappyPolicy,
    MaxCostPolicy,
    ScriptedPolicy,
    scan_best_responses,
)
from repro.graphs import adjacency as adj
from repro.graphs import bitkernel, incremental
from repro.graphs.generators import random_m_edge_network
from repro.graphs.incremental import IncrementalBackend
from repro.statespace.explore import explore
from tests.helpers import NoMemoBackend, network_from_adjacency, random_connected_adjacency


def same(a, b):
    """Two best responses agree on everything a caller can observe."""
    return (a.agent, a.cost_before, a.best_cost, a.moves) == (
        b.agent, b.cost_before, b.best_cost, b.moves)


def make_net(seed=3, n=9):
    rng = np.random.default_rng(seed)
    return network_from_adjacency(random_connected_adjacency(n, 4, rng), rng)


class TestStateMemo:
    def test_unchanged_state_is_served_from_memo(self):
        net = make_net()
        game = GreedyBuyGame("sum", alpha=2.0)
        backend = IncrementalBackend()
        first = game.best_responses(net, 1, backend=backend)
        assert game.best_responses(net, 1, backend=backend) is first
        assert same(first, game.best_responses(net, 1))

    def test_own_move_forces_reprice(self):
        net = make_net()
        game = GreedyBuyGame("sum", alpha=2.0)
        backend = IncrementalBackend()
        first = game.best_responses(net, 0, backend=backend)
        if first.moves:
            first.moves[0].apply(net)
        else:
            Buy(0, int(np.flatnonzero(~net.A[0])[1])).apply(net)
        again = game.best_responses(net, 0, backend=backend)
        assert again is not first
        assert same(again, game.best_responses(net, 0))

    def test_stale_happiness_is_impossible(self):
        """An agent priced as happy is priced afresh once the state
        changes its options."""
        # star around 0: leaf 1 owns nothing, so it cannot swap
        net = Network.from_owned_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        assert not game.best_responses(net, 1, backend=backend).is_improving
        # same topology, but 1 now owns {1, 0} and may swap it
        net2 = Network.from_owned_edges(5, [(1, 0), (0, 2), (0, 3), (0, 4)])
        assert same(game.best_responses(net2, 1, backend=backend),
                    game.best_responses(net2, 1))

    def test_remote_ownership_flip_drops_the_memo(self):
        net = Network.from_owned_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        game = AsymmetricSwapGame("sum")
        backend = IncrementalBackend()
        first = game.best_responses(net, 0, backend=backend)
        net.owner[3, 4] = False
        net.owner[4, 3] = True
        again = game.best_responses(net, 0, backend=backend)
        assert again is not first
        assert same(again, game.best_responses(net, 0))

    def test_non_local_game_is_memoised_per_state(self):
        net = Network.from_owned_edges(4, [(0, 1), (1, 2), (2, 3)])
        game = BilateralGame("sum", alpha=1.0)
        backend = IncrementalBackend()
        first = game.best_responses(net, 0, backend=backend)
        assert game.best_responses(net, 0, backend=backend) is first
        net.owner[2, 3] = False
        net.owner[3, 2] = True
        assert game.best_responses(net, 0, backend=backend) is not first

    def test_games_with_different_rules_do_not_share_entries(self):
        net = make_net()
        backend = IncrementalBackend()
        cheap, dear = GreedyBuyGame("sum", alpha=0.5), GreedyBuyGame("sum", alpha=50.0)
        first = cheap.best_responses(net, 2, backend=backend)
        other = dear.best_responses(net, 2, backend=backend)
        assert other is not first
        assert same(other, dear.best_responses(net, 2))


def held(backend):
    """``(adjacency bytes, agent, D(G - u))`` of the pass the backend holds."""
    return [(key, u, D) for key, mats in backend._deviation.items()
            for u, D in mats.items()]


def held_entries(backend):
    """float64 entries of the ``D(G - u)`` pass the backend holds."""
    return sum(D.size for _, _, D in held(backend))


def held_agents(backend):
    return sorted(u for _, u, _ in held(backend))


class TestDeviationBlocks:
    def test_full_scan_holds_at_most_one_block(self):
        """A scan over all n = 100 agents prices each like the no-memo
        reference and leaves at most one block of D(G - u) behind; after
        the next move no held matrix is served for the new state."""
        n = 100
        net = random_m_edge_network(n, 2 * n, seed=5)
        game = GreedyBuyGame("sum", alpha=n / 10)
        backend = IncrementalBackend()
        scanned = list(scan_best_responses(game, net, range(n), backend))
        assert [br.agent for br in scanned] == list(range(n))
        assert 1 < len(held(backend)) <= SCAN_BLOCK_CAP
        assert held_entries(backend) <= incremental._PASS_ENTRIES
        reference = NoMemoBackend()
        for br in scanned:
            assert same(br, game.best_responses(net, br.agent, backend=reference))
        old = net.A.tobytes()
        Buy(0, int(np.flatnonzero(~net.A[0])[1])).apply(net)
        assert backend.cached_best_response(game, net, 0) is None
        assert set(backend._deviation) == {old}
        for u in (0, 50, 99):
            assert np.array_equal(backend.deviation_distances(net, u),
                                  adj.distances_without_vertex(net.A, u))

    def test_prefetched_block_serves_queries(self):
        net = random_m_edge_network(100, 300, seed=9)
        backend = IncrementalBackend()
        backend.prefetch_deviations([(net, [4, 50, 99])])
        for u in (4, 50, 99):
            assert np.array_equal(backend.deviation_distances(net, u),
                                  adj.distances_without_vertex(net.A, u))
            assert held_agents(backend) == [4, 50, 99]
        # an agent outside the block is a rebuild that replaces it
        assert np.array_equal(backend.deviation_distances(net, 7),
                              adj.distances_without_vertex(net.A, 7))
        assert held_agents(backend) == [7]

    def test_blocks_below_one_word_rebuild_per_agent(self):
        """A block whose lanes do not fill a word is priced per agent; a
        larger one is computed as a whole."""
        net = random_m_edge_network(20, 40, seed=1)
        backend = IncrementalBackend()
        backend.prefetch_deviations([(net, [1, 2, 3])])
        backend.deviation_distances(net, 1)
        assert held_agents(backend) == [1]
        backend.prefetch_deviations([(net, [1, 2, 3, 4])])
        backend.deviation_distances(net, 2)
        assert held_agents(backend) == [1, 2, 3, 4]

    def test_memo_never_holds_more_than_the_budget(self, monkeypatch):
        """An announcement larger than the budget runs as several passes,
        each within it, and every answer matches the oracle."""
        monkeypatch.setattr(incremental, "_PASS_ENTRIES", 3 * 36)
        nets = [make_net(seed, n=6) for seed in range(5)]
        backend = IncrementalBackend()
        passes = []
        monkeypatch.setattr(bitkernel, "deviation_distances_block",
                            spy(bitkernel.deviation_distances_block, passes))
        backend.prefetch_deviations([(net, range(6)) for net in nets])
        for net in nets:
            for u in range(6):
                assert np.array_equal(backend.deviation_distances(net, u),
                                      adj.distances_without_vertex(net.A, u))
                assert held_entries(backend) <= 3 * 36
        assert len(passes) == 10

    def test_states_sharing_an_adjacency_share_matrices(self):
        """Distances ignore ownership: two states of one topology are
        priced once, and a best response is still never served across
        ownerships."""
        path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        net = Network.from_owned_edges(9, path)
        flipped = Network.from_owned_edges(9, [(v, u) for u, v in path])
        backend = IncrementalBackend()
        backend.prefetch_deviations([(net, range(9)), (flipped, range(9))])
        D = backend.deviation_distances(net, 3)
        assert backend.deviation_distances(flipped, 3) is D
        assert len(held(backend)) == 9
        game = AsymmetricSwapGame("sum")
        for state in (net, flipped):
            for u in range(9):
                assert same(game.best_responses(state, u, backend=backend),
                            game.best_responses(state, u, backend=NoMemoBackend()))


def spy(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestFullDistances:
    """``D(G)`` derived from a held or carried ``D(G - u)`` against the
    boolean-matmul oracle."""

    def test_held_matrix_of_the_same_adjacency_answers(self, monkeypatch):
        net = make_net(seed=11, n=12)
        backend = IncrementalBackend()
        backend.deviation_distances(net, 4)
        apsp = []
        monkeypatch.setattr(incremental.IncrementalAPSP, "distances",
                            spy(incremental.IncrementalAPSP.distances, apsp))
        assert np.array_equal(backend.full_distances(net), adj.all_pairs_distances(net.A))
        assert not apsp

    def test_carried_across_the_movers_own_move(self, monkeypatch):
        """Swaps, buys and disconnecting deletes by ``u`` keep
        ``G' - u = G - u``; a change elsewhere falls back to one APSP."""
        apsp = []
        monkeypatch.setattr(incremental.IncrementalAPSP, "distances",
                            spy(incremental.IncrementalAPSP.distances, apsp))
        net = Network.from_owned_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        backend = IncrementalBackend()
        for u, toggles in [(2, [(2, 3), (2, 5)]),   # swap
                           (0, [(0, 4)]),           # buy: both ends fit
                           (3, [(3, 4)]),           # delete
                           (1, [(1, 2)])]:          # a bridge: disconnects
            backend.deviation_distances(net, u)
            for a, b in toggles:
                net.A[a, b] = net.A[b, a] = not net.A[a, b]
            assert np.array_equal(backend.full_distances(net),
                                  adj.all_pairs_distances(net.A))
        assert not apsp
        net.A[4, 5] = net.A[5, 4] = not net.A[4, 5]
        assert np.array_equal(backend.full_distances(net), adj.all_pairs_distances(net.A))
        assert len(apsp) == 1

    @pytest.mark.parametrize("game", [
        SwapGame("sum"), AsymmetricSwapGame("max"),
        GreedyBuyGame("sum", alpha=2.0), BuyGame("sum", alpha=3.0)],
        ids=["sg", "asg", "gbg", "bg"])
    def test_move_sequences_match_the_oracle(self, game, monkeypatch):
        """Along max-cost runs every ``D(G)`` equals the oracle, and only
        the first state of a run needs an APSP."""
        apsp = []
        monkeypatch.setattr(incremental.IncrementalAPSP, "distances",
                            spy(incremental.IncrementalAPSP.distances, apsp))
        full = IncrementalBackend.full_distances
        checked = []

        def checking(self, net):
            D = full(self, net)
            assert np.array_equal(D, adj.all_pairs_distances(net.A))
            checked.append(D)
            return D

        monkeypatch.setattr(IncrementalBackend, "full_distances", checking)
        for seed in range(4):
            before = len(apsp)
            run_dynamics(game, make_net(seed, n=8), MaxCostPolicy(), seed=seed, max_steps=40)
            assert len(apsp) - before == 1
        # every run moves at least once, so most answers were derived
        assert len(checked) >= 2 * len(apsp)


class TestDynamicsLevel:
    def test_scripted_run_matches_no_memo_with_cycles(self):
        """A run revisiting states must still match the no-memo run."""
        rng = np.random.default_rng(21)
        A = random_connected_adjacency(10, 5, rng)
        net = network_from_adjacency(A, rng)
        game = AsymmetricSwapGame("max")
        schedule = [int(rng.integers(10)) for _ in range(30)]
        rd, ri = (
            run_dynamics(game, net, ScriptedPolicy(schedule, strict=False),
                         seed=4, max_steps=200, backend=backend)
            for backend in (NoMemoBackend(), None)
        )
        assert [(r.agent, r.move) for r in rd.trajectory] == [
            (r.agent, r.move) for r in ri.trajectory
        ]
        assert rd.final.state_key() == ri.final.state_key()

    def test_small_runs_and_censuses_price_through_the_memo(self, monkeypatch):
        """Without a backend, even the smallest run and census build a
        memo of their own."""
        stored = []
        store = IncrementalBackend.store_best_response

        def spy(self, game, net, u, br):
            stored.append(self)
            store(self, game, net, u, br)

        monkeypatch.setattr(IncrementalBackend, "store_best_response", spy)
        net = Network.from_owned_edges(4, [(0, 1), (1, 2), (2, 3)])
        game = AsymmetricSwapGame("sum")
        run_dynamics(game, net, ScriptedPolicy([0, 3], strict=False), seed=0)
        assert stored
        explore(game, n=3)
        assert len(set(map(id, stored))) == 2


class TestResolver:
    @pytest.mark.parametrize("entry", ["run_dynamics", "explore", "best_responses"])
    def test_retired_spec_string_is_a_named_error(self, entry):
        """The spec strings of earlier builds fail at the entry point,
        naming the string, not later on a missing backend method."""
        game = SwapGame("sum")
        net = Network.from_owned_edges(3, [(0, 1), (1, 2)])
        calls = {
            "run_dynamics": lambda: run_dynamics(game, net, FirstUnhappyPolicy(),
                                                 backend="dense"),
            "explore": lambda: explore(game, n=3, backend="dense"),
            "best_responses": lambda: game.best_responses(net, 0, backend="dense"),
        }
        with pytest.raises(TypeError, match="'dense'"):
            calls[entry]()

    def test_one_shot_game_calls_never_reach_the_matmul_kernel(self, monkeypatch):
        """``backend=None`` is a fresh memo: every distance-dependent
        ``Game`` method prices through the routed kernels."""
        def forbidden(*args, **kwargs):
            raise AssertionError("boolean-matmul APSP reached from the game layer")

        monkeypatch.setattr(adj, "all_pairs_distances", forbidden)
        monkeypatch.setattr(adj, "distances_without_vertex", forbidden)
        monkeypatch.setattr(adj, "bfs_distances", forbidden)
        net = make_net()
        for game in (GreedyBuyGame("sum", alpha=2.0), AsymmetricSwapGame("max"),
                     BilateralGame("sum", alpha=2.0)):
            game.is_stable(net)
            game.is_greedy_stable(net)
            game.cost_vector(net)
            game.current_cost(net, 0)
            game.improving_moves(net, 0)
            move = next(iter(game.candidate_moves(net, 0)), None)
            if move is not None:
                game.evaluate_move(net, 0, move)
                game.evaluate_move(net, 1, move)
