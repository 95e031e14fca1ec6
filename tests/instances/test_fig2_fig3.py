"""Deep verification of Figures 2 and 3 (Theorems 2.16 and 3.3)."""

import itertools

import numpy as np
import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.core.moves import Swap
from repro.graphs import adjacency as adj
from repro.instances.figures import fig2_max_sg_cycle, fig3_sum_asg_cycle
from repro.instances.verify import verify_cycle, verify_instance, verify_unhappy_sets
from repro.statespace import classify_reachable


@pytest.fixture(scope="module")
def fig2():
    return fig2_max_sg_cycle()


@pytest.fixture(scope="module")
def fig3():
    return fig3_sum_asg_cycle()


class TestFig2:
    """Theorem 2.16: the MAX-SG admits best response cycles and no move
    policy can enforce convergence."""

    def test_cost_profile_matches_proof(self, fig2):
        """Exactly a1, a3, b3, c3 have cost 3; everyone else has cost 2."""
        ecc = adj.eccentricities(fig2.network.A)
        want = {"a1": 3, "a2": 2, "a3": 3, "b1": 2, "b2": 2, "b3": 3,
                "c1": 2, "c2": 2, "c3": 3}
        got = {fig2.network.label(v): int(ecc[v]) for v in range(9)}
        assert got == want

    def test_cycle_verifies(self, fig2):
        verify_instance(fig2).raise_if_failed()

    def test_exactly_one_unhappy_agent_each_state(self, fig2):
        """The no-policy argument: every policy must pick the unique
        unhappy agent."""
        game = fig2.game
        net = fig2.network.copy()
        for (lbl, mv), claim in zip(fig2.cycle, fig2.claimed_unhappy):
            assert [net.label(u) for u in game.unhappy_agents(net)] == claim
            mv.apply(net)

    def test_states_are_rotations(self, fig2):
        """G2 = rho(G1): the swap rotates the network (proof's isomorphism)."""
        rho = (np.arange(9) + 3) % 9
        net = fig2.network.copy()
        fig2.moves()[0][1].apply(net)
        rotated = fig2.network.relabel_copy(rho.tolist())
        assert np.array_equal(net.A, rotated.A)

    def test_rotating_swap_is_best_response(self, fig2):
        game = fig2.game
        a1, b1, c1 = (fig2.network.index(x) for x in ("a1", "b1", "c1"))
        br = game.best_responses(fig2.network, a1)
        assert Swap(a1, b1, c1) in br.moves

    def test_topology_returns_after_three_swaps(self, fig2):
        net = fig2.network.copy()
        for _, mv in fig2.moves():
            mv.apply(net)
        assert np.array_equal(net.A, fig2.network.A)

    def test_not_fip(self, fig2):
        """The existence of the cycle refutes the finite improvement
        property on general networks (contrast with Theorem 2.1)."""
        rep = classify_reachable(fig2.game, fig2.network)
        assert rep.has_improvement_cycle


class TestFig3:
    """Theorem 3.3: the SUM-ASG is not weakly acyclic under best response,
    even with multi-swaps."""

    def test_structure(self, fig3):
        net = fig3.network
        assert net.n == 24 and net.m == 26
        # leaf counts from the figure: a:4, c:5, d:1, e:5, f:3
        for hub, count in (("a", 4), ("c", 5), ("d", 1), ("e", 5), ("f", 3)):
            leaves = [
                v for v in net.neighbors(net.index(hub))
                if net.degree(int(v)) == 1
            ]
            assert len(leaves) == count, hub

    def test_cycle_with_paper_decreases(self, fig3):
        rep = verify_cycle(fig3.game, fig3.network, fig3.moves())
        rep.raise_if_failed()
        assert rep.improvements == [4.0, 1.0, 1.0, 3.0]

    def test_unique_unhappy_agent_each_state(self, fig3):
        ids = [[fig3.network.index(l) for l in claim] for claim in fig3.claimed_unhappy]
        verify_unhappy_sets(fig3.game, fig3.network, fig3.moves(), ids).raise_if_failed()

    def test_best_response_unique_each_state(self, fig3):
        """The proof: 'the best possible swap for this agent is unique in
        every step'."""
        net = fig3.network.copy()
        for lbl, mv in fig3.cycle:
            br = fig3.game.best_responses(net, net.index(lbl))
            assert len(br.moves) == 1 and br.moves[0] == mv
            mv.apply(net)

    def test_not_br_weakly_acyclic(self, fig3):
        """The theorem: no best-response sequence from G1 stabilises —
        play is deterministic (unique unhappy agent + unique BR) and
        cycles through exactly four states."""
        rep = classify_reachable(fig3.game, fig3.network, moves="best")
        assert rep.n_states == 4
        assert rep.n_stable == 0
        assert not rep.weakly_acyclic
        assert not rep.truncated

    def test_multi_swaps_cannot_beat_best_single_swap(self, fig3):
        """'this result holds true even if agents can swap multiple edges
        in one step': for the moving agent, no same-cardinality strategy
        beats the single best swap."""
        from repro.core.best_response import DeviationEvaluator

        net = fig3.network.copy()
        for lbl, mv in fig3.cycle:
            u = net.index(lbl)
            game = fig3.game
            br = game.best_responses(net, u)
            ev = DeviationEvaluator(net, u, game.mode, adj.distances_without_vertex(net.A, u))
            incoming = list(net.incoming_neighbors(u))
            owned = frozenset(net.owned_targets(u).tolist())
            k = len(owned)
            pool = [
                w for w in range(net.n)
                if w != u and not net.A[u, w]
            ] + list(owned)
            best_multi = np.inf
            for S in itertools.combinations(sorted(set(pool)), k):
                if frozenset(S) == owned:
                    continue
                best_multi = min(best_multi, ev.distance_cost(list(S) + incoming))
            assert br.best_cost <= best_multi + 1e-9
            mv.apply(net)

    def test_paper_gap_documented_b_side_swap_in_g4(self, fig3):
        """Reproduction finding: the proof's claim that b's edges towards
        c and e are 'fixed' in all of G1..G4 fails in G4 — swapping be to
        bf improves b's cost by 2 there.  (This does not affect Theorem
        3.3, whose best responses stay unique, but it invalidates the
        'exactly one possible improving move' reading of Corollary 3.6.)
        """
        net = fig3.network.copy()
        for _, mv in fig3.moves()[:3]:
            mv.apply(net)  # now in G4
        b, e, f = (net.index(x) for x in ("b", "e", "f"))
        game = fig3.game
        before = game.current_cost(net, b)
        work = net.copy()
        Swap(b, e, f).apply(work)
        after = game.current_cost(work, b)
        assert before - after == 2.0  # improving, contradicting the side claim
        # ... but the unique *best* response is still the free-edge swap:
        br = game.best_responses(net, b)
        assert len(br.moves) == 1
        assert br.moves[0] == Swap(b, net.index("a"), f)
