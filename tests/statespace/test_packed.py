"""The explorer's packed state path against the ``Network`` path.

The explorer keys, stores and replays states without building a
network per successor: a successor's packed owner rows are its parent's
with the mover's pairs changed (:func:`repro.statespace.expand.successor_state`),
and the census seeds come from a vectorized enumeration.  Every check
here recomputes the same bytes the slow, obvious way — ``net.copy()``,
``move.apply`` and the network codec, or the per-assignment enumeration
loop — and demands identity.
"""

import json
from itertools import combinations, product

import numpy as np
import pytest

from repro.core.games import (
    AsymmetricSwapGame,
    BilateralGame,
    BuyGame,
    CooperativeBuyGame,
    GreedyBuyGame,
    SwapGame,
)
from repro.core.moves import move_from_dict
from repro.core.network import Network
from repro.experiments.campaign import decode_record_line, encode_record_line
from repro.graphs import adjacency as adj
from repro.statespace import explore
from repro.statespace.encode import PackedState, decode_state, encode_state, state_key
from repro.statespace.expand import Expander, ownership_matters, successor_state
from repro.statespace.explore import enumerate_states, seed_keys
from repro.statespace.store import ExplorationStore
from tests import reference


def _applied(net, move):
    succ = net.copy()
    move.apply(succ)
    return succ


#: (game, n, moveset): every game at n = 4 with its best and greedy
#: moves, the SG through n = 5, and the multi-swap games whose moves are
#: strategy changes (bilateral for the SG, owned targets for the ASG)
CASES = [
    (SwapGame("sum"), 4, "best"),
    (SwapGame("max"), 5, "best"),
    (SwapGame("sum", max_swaps=2), 5, "best"),
    (AsymmetricSwapGame("sum"), 4, "best"),
    (AsymmetricSwapGame("sum", max_swaps=2), 4, "improving"),
    (AsymmetricSwapGame("sum"), 4, "greedy"),
    (GreedyBuyGame("sum", 1.0), 4, "best"),
    (GreedyBuyGame("sum", 1.0), 4, "greedy"),
    (CooperativeBuyGame("sum", 2.0), 4, "best"),
    (CooperativeBuyGame("sum", 2.0), 4, "greedy"),
    (BuyGame("sum", 2.0), 4, "best"),
    (BuyGame("sum", 2.0), 4, "greedy"),
    (BilateralGame("sum", 1.0), 4, "best"),
]
IDS = ["sg-n4", "sg-max-n5", "sg-2swap-n5", "asg-n4",
       "asg-2swap-improving-n4", "asg-greedy-n4", "gbg-n4", "gbg-greedy-n4",
       "coop-n4", "coop-greedy-n4", "bg-n4", "bg-greedy-n4", "bilateral-n4"]


@pytest.mark.parametrize("game,n,moves", CASES, ids=IDS)
def test_every_successor_matches_copy_and_apply(game, n, moves):
    """For every state the census reaches: each transition's successor
    key and blob equal the applied move's, and the graph's transition
    leads to that key (a topology-notion key keeps the blob it was first
    interned with)."""
    report = explore(game, n=n, moves=moves)
    graph = report.graph
    expander = Expander(game, moves=moves)
    own = expander.with_ownership
    checked = 0
    for i in range(graph.n_states):
        net = decode_state(graph.blobs[i])
        assert state_key(net, own) == graph.keys[i]
        pairs = expander.expand_with_successors(net)
        assert len(pairs) == len(graph.transitions[i])
        for (t, blob), (agent, move, j) in zip(pairs, graph.transitions[i]):
            succ = _applied(net, t.move)
            assert t.succ_key == state_key(succ, own)
            assert blob == encode_state(succ)
            assert (agent, move) == (t.agent, t.move_dict())
            assert graph.keys[j] == t.succ_key
            checked += 1
    assert checked == report.n_edges > 0


@pytest.mark.parametrize("own", [True, False])
def test_packed_state_codec_matches_the_network_codec(own):
    for net in enumerate_states(4, with_ownership=own, connected_only=False):
        packed = PackedState.of(net, with_ownership=own)
        assert state_key(packed, own) == state_key(net, own)
        assert state_key(packed) == state_key(net)
        assert encode_state(packed) == encode_state(net)


def test_packed_state_spans_several_words():
    """Rows wider than one 64-bit word keep their bit positions."""
    net = Network.from_owned_edges(70, [(0, 69), (69, 1), (3, 66), (65, 2)])
    parent = PackedState.of(net, with_ownership=False)
    for move_dict in ({"op": "swap", "agent": 69, "old": 0, "new": 68},
                      {"op": "delete", "agent": 3, "target": 66},
                      {"op": "buy", "agent": 65, "target": 64}):
        move = move_from_dict(move_dict)
        succ = successor_state(parent, net.owner, move)
        oracle = _applied(net, move)
        for notion in (True, False):
            assert state_key(succ, notion) == state_key(oracle, notion)
        assert encode_state(succ) == encode_state(oracle)


# -- store replay ------------------------------------------------------------


class TestReplay:
    GAME = BuyGame("sum", 2.0)

    def _killed_store(self, root):
        """A store of a run killed mid-append: a budgeted slice, then a
        torn final line."""
        explore(self.GAME, n=4, store=root, max_expansions=150)
        [path] = ExplorationStore(root).record_files()
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        return ExplorationStore(root)

    def test_replayed_successors_match_copy_and_apply(self, tmp_path):
        store = self._killed_store(tmp_path / "x")
        rows = {rec["key"]: rec for rec in store.load_records()}
        assert 0 < len(rows) < 150
        graph = explore(self.GAME, n=4, store=store, max_expansions=0).graph
        for key_hex, rec in rows.items():
            net = decode_state(bytes.fromhex(rec["state"]))
            for _, move_dict, succ_hex in rec["succ"]:
                succ = _applied(net, move_from_dict(move_dict))
                j = graph.index[bytes.fromhex(succ_hex)]
                assert graph.blobs[j] == encode_state(succ)
                assert graph.keys[j] == state_key(succ)

    def test_resumed_run_is_byte_identical(self, tmp_path):
        straight = explore(self.GAME, n=4).json_bytes()
        store = self._killed_store(tmp_path / "x")
        assert explore(self.GAME, n=4, store=store).json_bytes() == straight

    #: a reachable component: its successors are new states, so replay
    #: derives them instead of finding them among the census seeds
    PATH = Network.from_owned_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])

    def _path_store(self, root):
        explore(SwapGame("sum"), self.PATH, store=root, max_expansions=1)
        [rec] = ExplorationStore(root).load_records()
        assert rec["succ"]
        return rec["key"]

    def test_wrong_move_fails_naming_the_record(self, tmp_path):
        def edit(rec):
            agent, move, succ = rec["succ"][0]
            rec["succ"][0] = [agent, {**move, "new": move["old"]}, succ]

        key = self._tamper_record(tmp_path, self._path_store(tmp_path), edit)
        with pytest.raises(ValueError, match=f"exploration record {key}: move"):
            explore(SwapGame("sum"), self.PATH, store=tmp_path)

    def test_corrupt_blob_fails_with_a_named_error(self, tmp_path):
        def edit(rec):
            net = decode_state(bytes.fromhex(rec["state"]))
            owner = net.owner.copy()
            owner[1, 0] = True  # {0, 1} owned by both endpoints
            rec["state"] = encode_state(Network._trusted(net.A, owner)).hex()

        self._tamper_record(tmp_path, self._path_store(tmp_path), edit)
        with pytest.raises(ValueError, match="owned by both endpoints"):
            explore(SwapGame("sum"), self.PATH, store=tmp_path)

    @staticmethod
    def _tamper_record(root, key_hex, edit):
        """Rewrite the stored record of ``key_hex`` through ``edit``,
        with a valid checksum: well-formed, but wrong."""
        [path] = ExplorationStore(root).record_files()
        out = []
        for line in path.read_text().splitlines():
            rec, _ = decode_record_line(line)
            if rec["key"] == key_hex:
                edit(rec)
                line = encode_record_line(rec)
            out.append(line)
        path.write_text("\n".join(out) + "\n")
        return key_hex


# -- seeding -----------------------------------------------------------------


def _enumerate_by_assignment(n, with_ownership, connected_only=True):
    """The per-assignment enumeration loop: one network per raw
    assignment, in product order, each tested for connectivity."""
    pairs = list(combinations(range(n), 2))
    out = []
    for assign in product(range(3 if with_ownership else 2), repeat=len(pairs)):
        A = np.zeros((n, n), dtype=bool)
        O = np.zeros((n, n), dtype=bool)
        for (u, v), c in zip(pairs, assign):
            if c:
                A[u, v] = A[v, u] = True
                O[u, v] = c == 1
                O[v, u] = c == 2
        if connected_only and not adj.is_connected(A):
            continue
        out.append(Network(A, O))
    return out


def _codes(nets, own):
    return [(encode_state(net), state_key(net, own)) for net in nets]


@pytest.mark.parametrize("connected_only", [True, False])
@pytest.mark.parametrize("own", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_the_assignment_loop(n, own, connected_only):
    assert _codes(enumerate_states(n, own, connected_only), own) == _codes(
        _enumerate_by_assignment(n, own, connected_only), own)


def test_sg_n5_enumeration_matches_the_assignment_loop():
    assert _codes(enumerate_states(5, with_ownership=False), False) == _codes(
        _enumerate_by_assignment(5, with_ownership=False), False)


@pytest.mark.parametrize("own", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_the_reference_enumerator(n, own):
    assert [reference.state_of(net) for net in enumerate_states(n, own)] == list(
        reference.enumerate_states(n, own))


def test_connected_labelled_graph_counts():
    """OEIS A001187: connected labelled graphs on 4, 5 and 6 vertices."""
    sg = SwapGame("sum")
    assert [len(seed_keys(sg, n=n)) for n in (4, 5, 6)] == [38, 728, 26_704]


@pytest.mark.parametrize("game", [SwapGame("sum"), AsymmetricSwapGame("sum")],
                         ids=["topology", "ownership"])
def test_seed_keys_are_the_enumerated_states_keys(game):
    own = ownership_matters(game)
    keys = [state_key(net, own) for net in enumerate_states(4, with_ownership=own)]
    assert seed_keys(game, n=4) == keys
    start = enumerate_states(4, with_ownership=own)[7]
    assert seed_keys(game, start=start) == [keys[7]]


@pytest.mark.parametrize("n", [0, -1])
def test_census_rejects_fewer_than_one_vertex(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        enumerate_states(n)
    with pytest.raises(ValueError, match=f"n={n}"):
        explore(SwapGame("sum"), n=n)
