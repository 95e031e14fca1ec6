"""Bit-packed kernel vs dense kernel: exact equivalence.

The word-parallel engine (:mod:`repro.graphs.bitkernel`) must agree
*bit for bit* with the boolean-matmul reference on every primitive —
single-source BFS, multi-source BFS, masked variants, APSP, vertex-
removed connectivity — on arbitrary graphs: disconnected ones, masked
ones, the empty graph, and sizes straddling the 64-bit word boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import adjacency as adj
from repro.graphs import bitkernel as bk


@st.composite
def graph_mask_case(draw, min_n=1, max_n=140):
    """Random (possibly disconnected) graph + optional alive-mask."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < rng.uniform(0.02, 0.4)
    A = np.triu(A, 1)
    A = A | A.T
    mask = None
    if draw(st.booleans()) and n > 1:
        mask = rng.random(n) < 0.8
    return A, mask


class TestPacking:
    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        B = rng.random((3, n)) < 0.5
        P = bk.pack_rows(B)
        assert P.dtype == np.uint64
        assert P.shape == (3, (n + 63) // 64)
        assert np.array_equal(bk.unpack_rows(P, n), B)

    def test_word_boundary_sizes(self):
        for n in (1, 63, 64, 65, 127, 128, 129):
            rng = np.random.default_rng(n)
            B = rng.random((2, n)) < 0.5
            assert np.array_equal(bk.unpack_rows(bk.pack_rows(B), n), B)


class TestBfsEquivalence:
    @given(graph_mask_case(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_source_matches_dense(self, case, data):
        A, mask = case
        n = A.shape[0]
        s = data.draw(st.integers(0, n - 1), label="source")
        want = adj.bfs_distances(A, s, mask=mask)
        got = bk.bfs_distances(A, s, mask=mask)
        assert np.array_equal(want, got)

    @given(graph_mask_case(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_multi_source_matches_dense(self, case, data):
        A, mask = case
        n = A.shape[0]
        k = data.draw(st.integers(1, n), label="num sources")
        seed = data.draw(st.integers(0, 2**31 - 1), label="source seed")
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=k, replace=False).tolist()
        want = adj.bfs_distances_multi(A, sources, mask=mask)
        got = bk.bfs_distances_multi(A, sources, mask=mask)
        assert np.array_equal(want, got)

    @given(graph_mask_case(max_n=90))
    @settings(max_examples=60, deadline=None)
    def test_apsp_matches_reference(self, case):
        A, mask = case
        want = adj.all_pairs_distances(A, mask=mask)
        got = bk.all_pairs_distances(A, mask=mask)
        assert np.array_equal(want, got)

    @given(graph_mask_case(min_n=3, max_n=90), st.data())
    @settings(max_examples=60, deadline=None)
    def test_connectivity_without_vertex_matches(self, case, data):
        A, _ = case
        n = A.shape[0]
        u = data.draw(st.integers(0, n - 1), label="removed vertex")
        mask = np.ones(n, dtype=bool)
        mask[u] = False
        start = 0 if u != 0 else 1
        want = bool(np.isfinite(adj.bfs_distances(A, start, mask=mask))[mask].all())
        assert bk.is_connected_without_vertex(A, u) == want

    def test_duplicate_sources(self):
        A = adj.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        sources = [2, 2, 0]
        assert np.array_equal(
            adj.bfs_distances_multi(A, sources), bk.bfs_distances_multi(A, sources)
        )

    def test_empty_and_trivial_graphs(self):
        assert bk.all_pairs_distances(np.zeros((0, 0), dtype=bool)).shape == (0, 0)
        one = bk.all_pairs_distances(np.zeros((1, 1), dtype=bool))
        assert np.array_equal(one, np.zeros((1, 1)))
        # isolated vertices: everything unreachable
        A = np.zeros((70, 70), dtype=bool)
        D = bk.all_pairs_distances(A)
        assert np.array_equal(D, adj.all_pairs_distances(A))

    def test_masked_out_source_is_all_inf(self):
        A = adj.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        mask = np.array([True, False, True, True])
        got = bk.bfs_distances_multi(A, [1, 0], mask=mask)
        want = adj.bfs_distances_multi(A, [1, 0], mask=mask)
        assert np.array_equal(got, want)
        assert np.isinf(got[0]).all()


class TestDeviationBlock:
    """``deviation_distances_block`` against the boolean-matmul oracle
    :func:`adjacency.distances_without_vertex`, for every ``(graph,
    agent)`` of a multi-graph pass."""

    @staticmethod
    def check(pairs):
        blocks = bk.deviation_distances_block(pairs)
        assert len(blocks) == len(pairs)
        for (A, agents), block in zip(pairs, blocks):
            n = A.shape[0]
            assert block.shape == (len(agents), n, n)
            for D, u in zip(block, agents):
                assert np.array_equal(D, adj.distances_without_vertex(A, u)), u
        return blocks

    @given(graph_mask_case(min_n=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_block_matches_oracle_per_agent(self, case, data):
        A, _ = case
        n = A.shape[0]
        agents = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                           label="agents")
        self.check([(A, agents)])

    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ragged_pass_over_many_graphs(self, n, graphs, seed):
        """Graphs of one size with ragged (possibly empty) agent lists,
        dense and sparse, connected or not, share one pass."""
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(graphs):
            A = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.5), 1)
            agents = rng.integers(0, n, size=int(rng.integers(0, 5))).tolist()
            pairs.append((A | A.T, agents))
        pairs[0][1].append(0)  # at least one lane in use
        self.check(pairs)

    @pytest.mark.parametrize("n, agents", [
        (2, [0, 1]), (21, [3, 20, 0]), (63, [0, 31, 62]), (64, [5]), (65, [64, 1, 7]),
    ])
    def test_lanes_across_word_boundaries(self, n, agents):
        rng = np.random.default_rng(n)
        A = np.triu(rng.random((n, n)) < 0.08, 1)
        self.check([(A | A.T, agents), (np.zeros((n, n), dtype=bool), agents[:1])])

    def test_cut_and_isolated_vertices(self):
        # a path 0-1-2-3 into the triangle 3-4-5, plus isolated 6 and 7
        A = adj.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        star = adj.from_edges(8, [(0, v) for v in range(1, 8)])
        block, star_block = self.check([(A, list(range(8))), (star, [0, 3])])
        assert np.isinf(block[1][0, 2])      # cut vertex 1 splits the path
        assert block[4][3, 5] == 1.0         # the triangle loses one corner
        assert np.isinf(block[2][2]).all() and np.isinf(block[2][:, 2]).all()
        assert np.isinf(block[0][6, :6]).all() and block[0][6, 6] == 0.0
        # the star's centre is a cut vertex of every leaf pair
        assert np.isinf(star_block[0][1, 2]) and star_block[1][1, 2] == 2.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiniest_graphs(self, n):
        full = ~np.eye(n, dtype=bool)
        self.check([(full, list(range(n))), (np.zeros((n, n), dtype=bool), [0]),
                    (full, [])])

    def test_wide_depth_counter_past_255_vertices(self):
        """A 260-path has distances past one byte: the depth counter
        widens to ``uint16``."""
        n = 260
        path = adj.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        (block, cycle_block) = self.check(
            [(path, [0, 130]), (path | adj.from_edges(n, [(0, n - 1)]), [5])])
        assert block[0][1, n - 1] == n - 2
        assert cycle_block[0][4, 6] == n - 2


class TestRouting:
    def test_forced_routing_is_exact_end_to_end(self):
        """adjacency's routed entry points give identical results with the
        bitkernel forced on and forced off."""
        rng = np.random.default_rng(5)
        A = rng.random((40, 40)) < 0.1
        A = np.triu(A, 1)
        A = A | A.T
        with bk.forced(False):
            base_apsp = adj.all_pairs_distances_fast(A)
            base_multi = adj.bfs_distances_multi(A, [0, 3, 7])
            base_conn = adj.is_connected_without_vertex(A, 5)
        with bk.forced(True):
            assert np.array_equal(adj.all_pairs_distances_fast(A), base_apsp)
            assert np.array_equal(adj.bfs_distances_multi(A, [0, 3, 7]), base_multi)
            assert adj.is_connected_without_vertex(A, 5) == base_conn

    def test_forced_context_restores(self):
        before = bk.enabled_for(1000)
        with bk.forced(False):
            assert not bk.enabled_for(10**6)
        assert bk.enabled_for(1000) == before

    def test_size_heuristics(self):
        with bk.forced(None):
            assert not bk.enabled_for(bk.MIN_N - 1)
            assert not bk.enabled_multi(bk.MIN_N - 1, 1000)
            assert bk.enabled_multi(500, 500)
            assert not bk.enabled_multi(500, 2)
            assert not bk.enabled_block(20, 3) and bk.enabled_block(20, 4)
            assert not bk.enabled_block(1000, 1)
