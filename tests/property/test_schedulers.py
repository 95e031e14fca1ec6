"""Property suites for the new activation models.

Pinned invariants:

* **Simultaneous rounds activate exactly the unhappy agents** — every
  round's ``movers`` equals the independently recomputed unhappy set of
  the round-start state, under both collision rules.
* **ε = 0 noise is the base policy** — trajectory-for-trajectory equal
  to running the base policy directly with the same seed.
* **Greedy improvement never hurts the mover** — every step's recorded
  cost strictly decreases, and matches a dense recomputation.
* **Adversarial replay is exact** — the played moves are the schedule,
  lap after lap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import run_dynamics, run_simultaneous_dynamics
from repro.core.games import EPS, AsymmetricSwapGame, GreedyBuyGame, SwapGame
from repro.core.policies import (
    AdversarialPolicy,
    FirstUnhappyPolicy,
    GreedyImprovementPolicy,
    MaxCostPolicy,
    NoisyBestResponsePolicy,
    RandomPolicy,
)
from repro.instances.figures import fig3_sum_asg_cycle

from tests.helpers import NoMemoBackend, network_from_adjacency, random_connected_adjacency


def _random_setup(n, seed, mode, game_kind):
    rng = np.random.default_rng(seed)
    net = network_from_adjacency(random_connected_adjacency(n, n // 2, rng), rng)
    if game_kind == "sg":
        game = SwapGame(mode)
    elif game_kind == "asg":
        game = AsymmetricSwapGame(mode)
    else:
        game = GreedyBuyGame(mode, alpha=n / 3.0)
    return game, net


# ---------------------------------------------------------------------------
# Simultaneous dynamics
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 10),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["sum", "max"]),
    st.sampled_from(["asg", "gbg"]),
    st.sampled_from(["forfeit", "force"]),
)
def test_simultaneous_rounds_activate_exactly_the_unhappy(n, seed, mode, game_kind, collision):
    """Each round's movers are the unhappy set of the round-start state
    (recomputed independently by replaying the applied moves)."""
    game, net = _random_setup(n, seed, mode, game_kind)
    result = run_simultaneous_dynamics(
        game, net, max_rounds=30, seed=seed, collision=collision
    )
    state = net.copy()
    for rr in result.round_records:
        unhappy = set(game.unhappy_agents(state))
        assert set(rr.movers) == unhappy
        assert rr.movers == sorted(rr.movers)
        # every activated agent either moved or was skipped by collision
        assert {rec.agent for rec in rr.applied} | {u for u, _ in rr.skipped} == unhappy
        for rec in rr.applied:
            rec.move.apply(state)
    assert state.state_key() == result.final.state_key()
    if result.converged:
        assert game.is_stable(result.final)


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**31 - 1), st.sampled_from(["asg", "gbg"]))
def test_simultaneous_forfeit_never_hurts_a_mover(n, seed, game_kind):
    """Under the forfeit rule every applied move strictly improved its
    agent at application time."""
    game, net = _random_setup(n, seed, "sum", game_kind)
    result = run_simultaneous_dynamics(
        game, net, max_rounds=30, seed=seed, collision="forfeit"
    )
    for rec in result.trajectory:
        assert rec.cost_after < rec.cost_before - EPS


def test_simultaneous_round_record_counts_are_consistent():
    game, net = _random_setup(10, 77, "sum", "gbg")
    result = run_simultaneous_dynamics(game, net, max_rounds=50, seed=77)
    assert result.steps == len(result.trajectory)
    assert result.rounds == len(result.round_records) or result.status != "converged"
    assert result.collisions == sum(len(rr.skipped) for rr in result.round_records)


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 6), st.integers(0, 2**31 - 1), st.sampled_from(["forfeit", "force"]))
def test_simultaneous_bilateral_rounds_respect_consent(n, seed, collision):
    """Every applied bilateral move was *feasible* (consented) at its
    application time — a round must never materialise an edge the
    game's own move definition could not produce."""
    from repro.core.games import BilateralGame

    rng = np.random.default_rng(seed)
    net = network_from_adjacency(random_connected_adjacency(n, 1, rng), rng)
    game = BilateralGame("sum", alpha=1.5)
    result = run_simultaneous_dynamics(
        game, net, max_rounds=10, seed=seed, collision=collision
    )
    state = net.copy()
    for rr in result.round_records:
        for rec in rr.applied:
            assert game.feasible(state, rec.move)
            rec.move.apply(state)
    assert state.state_key() == result.final.state_key()


# ---------------------------------------------------------------------------
# Noisy (ε-greedy) policy
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 10),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["sum", "max"]),
    st.sampled_from(["sg", "asg", "gbg"]),
    st.sampled_from(["maxcost", "random", "firstunhappy"]),
)
def test_epsilon_zero_equals_base_policy_trajectory(n, seed, mode, game_kind, base_kind):
    """ε = 0 must not consume a single extra RNG draw: the seeded run is
    trajectory-for-trajectory identical to the base policy's."""
    bases = {
        "maxcost": MaxCostPolicy,
        "random": RandomPolicy,
        "firstunhappy": FirstUnhappyPolicy,
    }
    game, net = _random_setup(n, seed, mode, game_kind)
    plain = run_dynamics(game, net, bases[base_kind](), seed=seed, max_steps=20 * n)
    noisy = run_dynamics(
        game, net, NoisyBestResponsePolicy(bases[base_kind](), 0.0),
        seed=seed, max_steps=20 * n,
    )
    assert plain.status == noisy.status
    assert [(r.agent, r.move, r.cost_before, r.cost_after) for r in plain.trajectory] == [
        (r.agent, r.move, r.cost_before, r.cost_after) for r in noisy.trajectory
    ]
    assert plain.final.state_key() == noisy.final.state_key()


@settings(max_examples=20, deadline=None)
@given(
    st.integers(4, 10),
    st.integers(0, 2**31 - 1),
    st.floats(0.1, 1.0),
    st.sampled_from(["asg", "gbg"]),
)
def test_noisy_policy_moves_are_improving(n, seed, epsilon, game_kind):
    """Exploration plays *improving* moves only, so every recorded step
    still strictly lowers the mover's cost and a converged final state
    is genuinely stable."""
    game, net = _random_setup(n, seed, "sum", game_kind)
    policy = NoisyBestResponsePolicy(MaxCostPolicy(), epsilon)
    result = run_dynamics(game, net, policy, seed=seed, max_steps=40 * n)
    for rec in result.trajectory:
        assert rec.cost_after < rec.cost_before - EPS
    if result.converged:
        assert game.is_stable(result.final)


def test_noisy_policy_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        NoisyBestResponsePolicy(MaxCostPolicy(), 1.5)
    with pytest.raises(ValueError):
        NoisyBestResponsePolicy(MaxCostPolicy(), -0.1)


def test_noisy_exploration_does_not_advance_a_stateful_base():
    """Exploration steps are invisible to the wrapped base: a scripted
    schedule must not be consumed by moves the base never selected."""
    inst = fig3_sum_asg_cycle()
    base = AdversarialPolicy(inst.moves(), loop=1)
    policy = NoisyBestResponsePolicy(base, epsilon=1.0)  # pure exploration
    run_dynamics(inst.game, inst.network, policy, seed=0, max_steps=12)
    assert base._pos == 0 and base._laps == 0  # schedule untouched

    # mixed regime: the base is notified exactly once per selection it
    # made itself, never for exploration steps
    class CountingBase(FirstUnhappyPolicy):
        selects = 0
        notifies = 0

        def select(self, game, net, rng, backend=None):
            type(self).selects += 1
            return super().select(game, net, rng, backend=backend)

        def notify(self, agent):
            type(self).notifies += 1

    game, net = _random_setup(9, 42, "sum", "gbg")
    policy = NoisyBestResponsePolicy(CountingBase(), epsilon=0.5)
    result = run_dynamics(game, net, policy, seed=4, max_steps=200)
    explored = result.steps - CountingBase.notifies
    # one notify per base selection that produced a move; the final
    # stability-reporting select (returning None) gets none
    assert CountingBase.selects - CountingBase.notifies in (0, 1)
    assert explored > 0  # and exploration actually happened


def test_evaluate_move_backend_path_only_prices_own_moves():
    """The D(G-u) fast path is only valid for u's own moves; pricing
    another agent's move must fall back to the copy path and agree with
    the one-shot answer."""
    from repro.core.moves import Swap
    from repro.graphs.generators import path_network
    from repro.graphs.incremental import IncrementalBackend

    net = path_network(5)
    game = SwapGame("sum")
    move = Swap(4, 3, 1)
    for backend in (NoMemoBackend(), IncrementalBackend()):
        for u in range(net.n):
            assert game.evaluate_move(net, u, move, backend=backend) == \
                game.evaluate_move(net, u, move)


# ---------------------------------------------------------------------------
# Greedy improvement policy
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 10),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["sum", "max"]),
    st.sampled_from(["sg", "asg", "gbg"]),
    st.sampled_from(["index", "random"]),
    st.sampled_from(["first", "random"]),
)
def test_greedy_improvement_never_increases_mover_cost(n, seed, mode, game_kind, order, choice):
    """The defining invariant: every greedy step strictly decreases the
    mover's cost (recorded *and* recomputed by a one-shot
    ``current_cost``), and termination means stability."""
    game, net = _random_setup(n, seed, mode, game_kind)
    policy = GreedyImprovementPolicy(order=order, move_choice=choice)
    result = run_dynamics(game, net, policy, seed=seed, max_steps=60 * n)
    state = net.copy()
    for rec in result.trajectory:
        cur = game.current_cost(state, rec.agent)
        assert cur == rec.cost_before
        rec.move.apply(state)
        after = game.current_cost(state, rec.agent)
        assert after == rec.cost_after
        assert after < cur - EPS
    if result.converged:
        assert game.is_stable(result.final)


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**31 - 1))
def test_greedy_is_backend_equivalent(n, seed):
    """Like every policy, greedy must be identical with and without the memo."""
    game, net = _random_setup(n, seed, "sum", "gbg")
    kwargs = dict(seed=seed, max_steps=60 * n, move_tie_break="first")
    rd = run_dynamics(game, net, GreedyImprovementPolicy(), backend=NoMemoBackend(), **kwargs)
    ri = run_dynamics(game, net, GreedyImprovementPolicy(), **kwargs)
    assert [(r.agent, r.move) for r in rd.trajectory] == [
        (r.agent, r.move) for r in ri.trajectory
    ]
    assert rd.final.state_key() == ri.final.state_key()


# ---------------------------------------------------------------------------
# Adversarial replay
# ---------------------------------------------------------------------------


def test_adversarial_policy_replays_fig3_schedule_exactly():
    inst = fig3_sum_asg_cycle()
    schedule = inst.moves()
    result = run_dynamics(
        inst.game, inst.network, AdversarialPolicy(schedule, loop=3),
        seed=0, max_steps=100,
    )
    assert result.steps == 3 * len(schedule)
    played = [(rec.agent, rec.move) for rec in result.trajectory]
    assert played == schedule * 3
    # the cycle returns to the initial state after every lap
    assert result.final.state_key() == inst.network.state_key()


def test_adversarial_policy_detects_cycle_when_looping_forever():
    inst = fig3_sum_asg_cycle()
    result = run_dynamics(
        inst.game, inst.network, AdversarialPolicy(inst.moves(), loop=None),
        seed=0, max_steps=100, detect_cycles=True,
    )
    assert result.cycled
    assert result.cycle_length == len(inst.cycle)


def test_adversarial_policy_rejects_non_best_response_schedule():
    inst = fig3_sum_asg_cycle()
    # play the second move first: agent b's swap is not a best response
    # (indeed not improving) in G1
    bad = [inst.moves()[1]]
    with pytest.raises(RuntimeError):
        run_dynamics(
            inst.game, inst.network, AdversarialPolicy(bad), seed=0, max_steps=10
        )
