"""The best-response collectors against the reference's naive one.

``_collect_best_rows`` decides every row of a block from the row minimum
``g``: a row with no cost in ``(g, g + 2*EPS]`` hands ``_collect_best``
only its entries costing ``g``, a row with such a near-tie its whole
stream.  ``_collect_best_batches`` is its one-row case.  All must return
exactly what the reference's sequential collector
(``tests.reference.collect_best``) returns for each stream scored one
move at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import games
from repro.core.games import (
    EPS,
    _collect_best,
    _collect_best_batches,
    _collect_best_rows,
    _improving_rows,
)
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


# ---------------------------------------------------------------------------
# the row-wise reducer of a block
# ---------------------------------------------------------------------------


def _rows(rows):
    """Flat costs, row offsets and a move factory of a block of rows."""
    starts = np.cumsum([0] + [len(r) for r in rows])
    flat = np.array([c for r in rows for c in r], dtype=float)
    return flat, starts, lambda e: Buy(0, int(e) + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(costs_strategy,
                          st.sampled_from([3.0, 5.0 + 0.5 * EPS, 100.0, np.inf])),
                max_size=6))
def test_row_reducer_matches_the_sequential_rule_per_row(block):
    rows = [costs for costs, _ in block]
    befores = [before for _, before in block]
    flat, starts, make = _rows(rows)
    got = _collect_best_rows(list(range(len(rows))), befores, flat, starts, make)
    for k, (costs, before) in enumerate(block):
        shifted = [(make(starts[k] + i), c) for i, c in enumerate(costs)]
        want = _collect_best(k, before, shifted)
        assert (got[k].agent, got[k].cost_before, got[k].best_cost, got[k].moves) == (
            want.agent, want.cost_before, want.best_cost, want.moves)
        assert (got[k].best_cost, got[k].moves) == collect_best(before, shifted)
        assert type(got[k].best_cost) is type(want.best_cost)
    improving = _improving_rows(befores, flat, starts, make)
    for k, (costs, before) in enumerate(block):
        assert improving[k] == [(make(starts[k] + i), c) for i, c in enumerate(costs)
                                if c < before - EPS]


def test_only_the_near_tie_row_falls_back(monkeypatch):
    """Row 1 has a cost in ``(g, g + 2*EPS]`` and hands its whole stream
    to ``_collect_best``; rows 0 and 2 hand over only their entries
    costing ``g``, and the happy row 3 nothing at all."""
    g = 10.0
    rows = [[g + 3, g, g + 1, g],
            [g + 2.5 * EPS, g + 1.6 * EPS, g + 0.9 * EPS, g],
            [g, g + 4 * EPS],
            [g, g + 1]]
    befores = [100.0, 100.0, 100.0, g]
    handed = []
    collect = games._collect_best

    def spy(agent, cost_before, scored):
        scored = list(scored)
        handed.append((agent, [c for _, c in scored]))
        return collect(agent, cost_before, scored)

    monkeypatch.setattr(games, "_collect_best", spy)
    flat, starts, make = _rows(rows)
    got = _collect_best_rows([0, 1, 2, 3], befores, flat, starts, make)
    assert handed == [(0, [g, g]), (1, rows[1]), (2, [g])]
    assert [b.moves for b in got] == [[Buy(0, 2), Buy(0, 4)], [Buy(0, 7), Buy(0, 8)],
                                      [Buy(0, 9)], []]
    assert got[1].best_cost == g + 0.9 * EPS
    assert got[3].best_cost == g and got[3].cost_before == g
