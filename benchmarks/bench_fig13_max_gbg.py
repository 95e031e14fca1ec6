"""Figure 13 — MAX-GBG: steps until convergence.

Paper claims: < 8n steps; linear in n; alpha matters far less than in
the SUM version; for m >= 2n the max cost policy is *slower* than the
random policy (the opposite of SUM).
"""

from repro.experiments.gbg import figure13_spec
from repro.experiments.report import figure_summary, format_figure

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30)
TRIALS = 10


def test_fig13_max_gbg(benchmark):
    spec = figure13_spec(
        ms=("n", "4n"), alphas=("n/10", "n"), n_values=N_VALUES, trials=TRIALS
    )
    result = run_figure_once(benchmark, spec, seed=13)
    print()
    print(format_figure(result, "mean"))
    print()
    print(format_figure(result, "max"))
    save_summary("fig13", figure_summary(result))

    assert result.non_converged_total() == 0
    assert result.overall_max_ratio() < 8.0

    n = N_VALUES[-1]
    # alpha has little impact under MAX (same m, same policy)
    a_small = result.series["m=4n, a=n/10, random"][n].mean
    a_big = result.series["m=4n, a=n, random"][n].mean
    assert abs(a_small - a_big) <= 0.6 * max(a_small, a_big, 1.0)

    # for dense starts the max cost policy is not faster than random
    mc = result.series["m=4n, a=n/10, max cost"][n].mean
    rnd = result.series["m=4n, a=n/10, random"][n].mean
    assert mc >= rnd * 0.8
