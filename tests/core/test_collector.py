"""The best-response collectors against the reference's naive one.

``_collect_best_batches`` answers from the stream minimum ``g`` whenever
no cost lies in ``(g, g + 2*EPS]``, and hands near-ties to
``_collect_best``.  Both must return exactly what the reference's
sequential collector (``tests.reference.collect_best``) returns for the
concatenated stream scored one move at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.games import EPS, _collect_best, _collect_best_batches
from repro.core.moves import Buy

from tests.reference import collect_best


def _scored(costs):
    return [(Buy(0, i + 1), c) for i, c in enumerate(costs)]


def _batches(costs, cuts):
    """The stream split at ``cuts`` into ``(costs, make_move)`` batches."""
    out, start = [], 0
    for stop in sorted(set(cuts)) + [len(costs)]:
        out.append((np.array(costs[start:stop], dtype=float),
                    lambda i, s=start: Buy(0, s + i + 1)))
        start = stop
    return out


#: integers plus offsets at the scale of the tie tolerance, and inf
costs_strategy = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 5),
                  st.sampled_from([0.0, 0.4, 0.9, 1.0, 1.6, 2.0, 2.5, -0.9]))
        .map(lambda t: t[0] + t[1] * EPS),
        st.just(np.inf),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(costs_strategy, st.lists(st.integers(0, 30), max_size=4),
       st.sampled_from([3.0, 5.0 + 0.5 * EPS, 100.0, np.inf]))
def test_collectors_match_reference(costs, cuts, cost_before):
    cuts = [c for c in cuts if c <= len(costs)]
    best_cost, moves = collect_best(cost_before, _scored(costs))
    for got in (_collect_best(7, cost_before, _scored(costs)),
                _collect_best_batches(7, cost_before, _batches(costs, cuts))):
        assert (got.agent, got.cost_before, got.best_cost, got.moves) == (
            7, cost_before, best_cost, moves)
        assert type(got.best_cost) is type(best_cost)


def test_near_ties_replay_the_sequential_rule():
    """A bare global minimum would keep only index 3: the running best
    resets at ``g + 0.9*EPS`` and ``g`` merely ties with it."""
    g = 10.0
    costs = [g + 2.5 * EPS, g + 1.6 * EPS, g + 0.9 * EPS, g]
    br = _collect_best_batches(0, 100.0, _batches(costs, []))
    assert br.best_cost == g + 0.9 * EPS
    assert br.moves == [Buy(0, 3), Buy(0, 4)]
    assert (br.best_cost, br.moves) == collect_best(100.0, _scored(costs))
