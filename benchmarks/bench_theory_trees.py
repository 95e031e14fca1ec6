"""Theory benches — Theorems 2.1 / 2.11 and Corollaries 3.1 / 3.2.

Regenerates the paper's tree-convergence quantities:

* the MAX-SG path series M(P_n) under the Theorem 2.11 policy
  (Theta(n log n));
* adversarial-free random-tree convergence versus the O(n^3) bound;
* the SUM-SG max-cost exact bound n-3 on even paths.
"""

import pytest

from repro.core.games import AsymmetricSwapGame, SwapGame
from repro.core.policies import MaxCostPolicy, RandomPolicy
from repro.graphs.generators import path_network, random_tree_network
from repro.theory.bounds import max_sg_tree_bound, nlogn, sum_asg_maxcost_bound
from repro.theory.tree_dynamics import path_lower_bound_run, run_tree_dynamics

from conftest import save_summary


def test_theorem_2_11_path_series(benchmark):
    """M(P_n) for n = 9..49: superlinear, below 2 n log n."""

    def series():
        return {n: path_lower_bound_run(n).steps for n in (9, 17, 25, 33, 49)}

    data = benchmark.pedantic(series, iterations=1, rounds=1)
    print()
    print("n      M(Pn)   n log2 n")
    for n, m in data.items():
        print(f"{n:<6d} {m:<7d} {nlogn(n):7.1f}")
    save_summary("theory_m_pn", {str(k): v for k, v in data.items()})
    for n, m in data.items():
        assert m <= 2 * nlogn(n)
    assert data[33] > 2.2 * data[17] * 0.9  # superlinear doubling


def test_theorem_2_1_random_trees(benchmark):
    """MAX-SG random-tree convergence under the random policy stays far
    below the O(n^3) bound of Theorem 2.1."""

    def run():
        out = {}
        for n in (10, 20, 30):
            steps = []
            for seed in range(5):
                net = random_tree_network(n, seed=seed)
                rep = run_tree_dynamics(
                    SwapGame("max"), net, RandomPolicy(), seed=seed,
                    check_potential=False,
                )
                assert rep.result.converged
                steps.append(rep.steps)
            out[n] = max(steps)
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("n      worst steps   O(n^3) bound")
    for n, s in data.items():
        print(f"{n:<6d} {s:<13d} {max_sg_tree_bound(n):12.0f}")
    save_summary("theory_tree_worst", {str(k): v for k, v in data.items()})
    for n, s in data.items():
        assert s <= max_sg_tree_bound(n)


def test_corollary_3_2_exact_path_bound(benchmark):
    """SUM-SG on even paths under max cost hits exactly n-3 steps."""

    def run():
        out = {}
        for n in (8, 10, 12, 14):
            rep = run_tree_dynamics(
                SwapGame("sum"), path_network(n), MaxCostPolicy(tie_break="index"),
                seed=1, check_potential=False,
            )
            out[n] = rep.steps
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("n      steps   bound n-3")
    for n, s in data.items():
        print(f"{n:<6d} {s:<7d} {sum_asg_maxcost_bound(n)}")
    for n, s in data.items():
        assert s == sum_asg_maxcost_bound(n)
