"""Figure 7 — SUM-ASG with budget k: steps until convergence.

Paper: k in {1..6, 10}, n = 10..100, 10000 trials, max cost vs random
policy.  Claims: every run < 5n steps; max cost faster than random;
k = 1 needs only about n steps.
"""

from repro.experiments.asg_budget import figure7_spec
from repro.experiments.report import figure_summary, format_figure

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30, 40)
TRIALS = 12
BUDGETS = (1, 2, 4)


def test_fig07_sum_asg_budget(benchmark):
    spec = figure7_spec(budgets=BUDGETS, n_values=N_VALUES, trials=TRIALS)
    result = run_figure_once(benchmark, spec, seed=7)
    print()
    print(format_figure(result, "mean"))
    print()
    print(format_figure(result, "max"))
    save_summary("fig07", figure_summary(result))

    # paper claim: all runs converge within the 5n envelope
    assert result.non_converged_total() == 0
    assert result.overall_max_ratio() < 5.0

    # paper claim: max cost policy at least as fast as random (SUM),
    # most visible for mid-range budgets at the larger n
    n = N_VALUES[-1]
    mc = result.series["k=2, max cost"][n].mean
    rnd = result.series["k=2, random"][n].mean
    assert mc <= rnd * 1.2

    # paper claim: k=1 converges in about n steps
    assert result.series["k=1, max cost"][n].max <= 2 * n
