"""Figure 8 — MAX-ASG with budget k: steps until convergence.

Paper claims: every run < 5n steps (one outlier in their data); the max
cost and random policies are nearly indistinguishable; larger budgets
converge faster; k = 1 stays below n log n.
"""

import math

from repro.experiments.asg_budget import figure8_spec
from repro.experiments.report import figure_summary, format_figure

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30, 40)
TRIALS = 12
BUDGETS = (1, 2, 4)


def test_fig08_max_asg_budget(benchmark):
    spec = figure8_spec(budgets=BUDGETS, n_values=N_VALUES, trials=TRIALS)
    result = run_figure_once(benchmark, spec, seed=8)
    print()
    print(format_figure(result, "mean"))
    print()
    print(format_figure(result, "max"))
    save_summary("fig08", figure_summary(result))

    assert result.non_converged_total() == 0
    assert result.overall_max_ratio() < 5.0

    n = N_VALUES[-1]
    # policies nearly indistinguishable under MAX
    for k in BUDGETS:
        mc = result.series[f"k={k}, max cost"][n].mean
        rnd = result.series[f"k={k}, random"][n].mean
        assert abs(mc - rnd) <= 0.75 * max(mc, rnd, 1.0)

    # larger budgets converge faster (k=4 vs k=2 under random)
    assert result.series["k=4, random"][n].mean <= result.series["k=2, random"][n].mean * 1.25

    # k=1 below the n log n envelope
    assert result.series["k=1, max cost"][n].max <= n * math.log2(n)
