"""Figure 14 — MAX-GBG starting topologies: random vs rl vs dl.

Paper claims: topology matters more than in SUM (up to ~5x) and the
order is the intuitive one: random < rl < dl; the edge price alpha has
almost no influence; both policies perform nearly identically.
"""

from repro.experiments.report import figure_summary, format_figure
from repro.experiments.topology import figure14_spec

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30)
TRIALS = 10


def test_fig14_max_gbg_topology(benchmark):
    spec = figure14_spec(alphas=("n/10", "n"), n_values=N_VALUES, trials=TRIALS)
    result = run_figure_once(benchmark, spec, seed=14)
    print()
    print(format_figure(result, "max"))
    save_summary("fig14", figure_summary(result))

    assert result.non_converged_total() == 0

    n = N_VALUES[-1]
    # random <= dl ordering (the paper's headline; rl sits in between)
    rand = result.series["m=n, a=n/10, random"][n].mean
    dl = result.series["a=n/10, dl, random"][n].mean
    assert rand <= dl * 1.1

    # alpha nearly irrelevant for the same topology/policy
    a_small = result.series["a=n/10, dl, random"][n].mean
    a_big = result.series["a=n, dl, random"][n].mean
    assert abs(a_small - a_big) <= 0.5 * max(a_small, a_big, 1.0)

    # the two policies are close on the dl setting
    mc = result.series["a=n/10, dl, max cost"][n].mean
    rnd = result.series["a=n/10, dl, random"][n].mean
    assert abs(mc - rnd) <= 0.75 * max(mc, rnd, 1.0)
