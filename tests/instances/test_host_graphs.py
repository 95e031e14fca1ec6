"""Tests for Corollaries 3.6 and 4.2 — the host-graph instances.

These corollaries claim that on restricted host graphs the cycles become
inescapable.  Our exhaustive verification shows the published claims do
not hold verbatim (the proofs overlook improving side moves); the tests
below pin down precisely what *does* hold and document the gap as a
reproduction finding (see EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.instances.host_graphs import (
    complete_host_minus,
    cycle_union_host,
    fig3_host_instance,
    fig6_host_instance,
    fig9_host_instance,
    fig10_host_instance,
)
from repro.instances.verify import verify_cycle, verify_unhappy_sets
from repro.statespace import classify_reachable


class TestHostConstruction:
    def test_complete_host_minus(self):
        from repro.instances.figures import fig3_sum_asg_cycle

        inst = fig3_sum_asg_cycle()
        H = complete_host_minus(inst.network, [("a", "f")])
        a, f = inst.network.index("a"), inst.network.index("f")
        assert not H[a, f] and not H[f, a]
        assert H.sum() == 24 * 23 - 2

    def test_cycle_union_host_contains_all_cycle_edges(self):
        from repro.instances.figures import fig9_sum_bg_cycle

        inst = fig9_sum_bg_cycle()
        H = cycle_union_host(inst)
        net = inst.network.copy()
        assert (H & net.A).sum() == net.A.sum()
        for _, mv in inst.moves():
            mv.apply(net)
            assert not (net.A & ~H).any()


class TestCyclesSurviveHostRestriction:
    """The BR cycles remain valid best-response cycles on the hosts."""

    @pytest.mark.parametrize(
        "ctor", [fig3_host_instance, fig9_host_instance, fig10_host_instance, fig6_host_instance]
    )
    def test_cycle_verifies(self, ctor):
        inst = ctor()
        verify_cycle(inst.game, inst.network, inst.moves()).raise_if_failed()

    def test_fig3_host_movers_unique_unhappy(self):
        """On the host minus {a,f}, the cycle's unhappy sets are still
        exactly {f} / {b} in every state."""
        inst = fig3_host_instance()
        ids = [[inst.network.index(l) for l in c] for c in inst.claimed_unhappy]
        verify_unhappy_sets(inst.game, inst.network, inst.moves(), ids).raise_if_failed()


class TestPublishedClaimsDoNotHoldVerbatim:
    """Reproduction finding: exhaustive exploration from G1 on the
    published host graphs reaches stable networks, contradicting the
    corollaries' 'exactly one improving move' readings."""

    def test_fig9_host_has_unclaimed_improving_deletions(self):
        inst = fig9_host_instance()
        net = inst.network.copy()
        for _, mv in inst.moves()[:2]:
            mv.apply(net)  # G3: the 5-cycle b-c-d-e-f-b exists
        game = inst.game
        d = net.index("d")
        dels = [
            m for m, c in game.improving_moves(net, d)
            if type(m).__name__ == "Delete"
        ]
        assert dels, "the proof overlooks d's improving deletion in G3"

    @pytest.mark.parametrize(
        "ctor", [fig9_host_instance, fig10_host_instance, fig3_host_instance]
    )
    def test_weak_acyclicity_not_refuted(self, ctor):
        inst = ctor()
        rep = classify_reachable(inst.game, inst.network, max_states=20_000)
        assert not rep.truncated
        assert rep.has_improvement_cycle  # the BR cycle is there ...
        assert rep.weakly_acyclic  # ... but improving escapes stabilise

    def test_fig3_host_br_dynamics_still_cycles_forever(self):
        """What *is* true: under best responses the fig3 host instance
        cycles with no stable state reachable (the Theorem 3.3 strength
        survives the host restriction)."""
        inst = fig3_host_instance()
        rep = classify_reachable(inst.game, inst.network, moves="best")
        assert rep.n_states == 4 and rep.n_stable == 0
        assert not rep.weakly_acyclic
