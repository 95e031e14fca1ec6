"""The canonical bit-packed state encoding (`repro.statespace.encode`)."""

import numpy as np
import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.core.network import Network
from repro.graphs.generators import random_budget_network, random_m_edge_network
from repro.statespace.encode import (
    decode_state,
    encode_state,
    packed_state,
    state_key,
    state_key_hex,
)


def _net(n=9, seed=3):
    return random_budget_network(n, 2, seed=seed)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [2, 5, 17, 64, 65, 70])
    def test_encode_decode_losslessly(self, n):
        net = random_m_edge_network(n, min(2 * n, n * (n - 1) // 2), seed=n)
        back = decode_state(encode_state(net))
        assert np.array_equal(back.A, net.A)
        assert np.array_equal(back.owner, net.owner)

    def test_decoded_network_is_mutable(self):
        net = _net()
        back = decode_state(encode_state(net))
        u = int(back.owned_targets(0)[0])
        back.remove_edge(0, u)  # must not raise on a read-only buffer
        assert not back.has_edge(0, u)

    def test_labels_pass_through(self):
        net = Network.from_labeled_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        back = decode_state(encode_state(net), labels=["a", "b", "c"])
        assert back.index("c") == 2

    def test_bad_blob_rejected(self):
        with pytest.raises(ValueError, match="not a statespace blob"):
            decode_state(b"\x07junk")
        with pytest.raises(ValueError, match="payload"):
            decode_state(encode_state(_net())[:-8])

    def test_blob_is_bit_packed(self):
        """The payload is n words of 8 bytes per row, not n^2 bool bytes."""
        net = _net(n=64)
        assert len(encode_state(net)) == 5 + 64 * 8
        assert len(packed_state(net)) == 64 * 8


class TestStateKey:
    def test_key_is_fixed_size_and_deterministic(self):
        net = _net()
        assert len(state_key(net)) == 16
        assert state_key(net) == state_key(net.copy())
        assert state_key_hex(net) == state_key(net).hex()

    def test_ownership_notion_distinguishes_owners(self):
        a = Network.from_owned_edges(3, [(0, 1), (1, 2)])
        b = Network.from_owned_edges(3, [(1, 0), (1, 2)])
        assert state_key(a) != state_key(b)
        assert state_key(a, with_ownership=False) == state_key(b, with_ownership=False)

    def test_different_topologies_differ_under_both_notions(self):
        a = Network.from_owned_edges(3, [(0, 1), (1, 2)])
        b = Network.from_owned_edges(3, [(0, 1), (0, 2)])
        for own in (True, False):
            assert state_key(a, own) != state_key(b, own)

    def test_key_depends_on_n(self):
        """A padded small state can never collide with a larger one."""
        a = Network.from_owned_edges(2, [(0, 1)])
        b = Network.from_owned_edges(3, [(0, 1)])
        assert state_key(a) != state_key(b)


class TestSharedCycleKey:
    """run_dynamics, annotate_cycle and the explorer share one key."""

    def test_dynamics_and_annotate_agree_on_fig3(self):
        from repro.analysis.trajectories import annotate_cycle
        from repro.core.dynamics import run_dynamics
        from repro.core.policies import FirstUnhappyPolicy
        from repro.instances.figures import fig3_sum_asg_cycle

        inst = fig3_sum_asg_cycle()
        live = run_dynamics(
            inst.game, inst.network, FirstUnhappyPolicy(), seed=0,
            move_tie_break="first", detect_cycles=True, max_steps=50,
        )
        assert live.cycled and live.cycle_length == 4
        replay = run_dynamics(
            inst.game, inst.network, FirstUnhappyPolicy(), seed=0,
            move_tie_break="first", detect_cycles=False, max_steps=live.steps,
        )
        annotated = annotate_cycle(inst.network, replay)
        assert annotated.cycled
        assert annotated.cycle_length == live.cycle_length

    def test_swap_changing_only_ownership_is_a_revisit_without_ownership(self):
        """The SG state notion (topology-only) collapses owner flips."""
        net = Network.from_owned_edges(3, [(0, 1), (1, 2)])
        work = net.copy()
        # flip ownership of {0,1} by a remove+add in the other direction
        work.remove_edge(0, 1)
        work.add_edge(1, 0)
        assert state_key(net, with_ownership=False) == state_key(work, with_ownership=False)
        assert state_key(net) != state_key(work)

    def test_expander_notion_matches_verify(self):
        from repro.statespace.expand import Expander, ownership_matters

        assert ownership_matters(AsymmetricSwapGame("sum"))
        assert not ownership_matters(SwapGame("sum"))
        ex = Expander(SwapGame("sum"))
        net = _net(6)
        assert not ex.with_ownership
        assert state_key(net, ex.with_ownership) == state_key(net, with_ownership=False)
