"""Figure 11 — SUM-GBG: steps until convergence.

Paper: m in {n, 2n, 4n}, alpha in {n/10, n/4, n}, both policies, 5000
trials.  Claims: < 7n steps, linear growth in n, max cost <= random,
denser starts (m = 4n) slower than m = n, smaller alpha slower.
"""

from repro.experiments.gbg import figure11_spec
from repro.experiments.report import figure_summary, format_figure

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30)
TRIALS = 10


def test_fig11_sum_gbg(benchmark):
    spec = figure11_spec(
        ms=("n", "4n"), alphas=("n/10", "n"), n_values=N_VALUES, trials=TRIALS
    )
    result = run_figure_once(benchmark, spec, seed=11)
    print()
    print(format_figure(result, "mean"))
    print()
    print(format_figure(result, "max"))
    save_summary("fig11", figure_summary(result))

    assert result.non_converged_total() == 0
    assert result.overall_max_ratio() < 7.0

    n = N_VALUES[-1]
    # denser initial networks take longer (alpha = n/10 series, random)
    sparse = result.series["m=n, a=n/10, random"][n].mean
    dense = result.series["m=4n, a=n/10, random"][n].mean
    assert dense > sparse

    # smaller alpha takes longer on dense starts
    small_a = result.series["m=4n, a=n/10, random"][n].mean
    big_a = result.series["m=4n, a=n, random"][n].mean
    assert small_a >= big_a * 0.9

    # max cost <= random for SUM
    mc = result.series["m=n, a=n/10, max cost"][n].mean
    rnd = result.series["m=n, a=n/10, random"][n].mean
    assert mc <= rnd * 1.25
