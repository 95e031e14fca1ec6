"""Figure 12 — SUM-GBG starting topologies: random vs rl vs dl.

Paper claims: the topology's impact on convergence time is marginal
(about a factor of 2 at most); counter-intuitively ``dl`` (directed
line) is the fastest setting under both policies; the max cost policy
is at least as fast as the random policy.
"""

from repro.experiments.report import figure_summary, format_figure
from repro.experiments.topology import figure12_spec

from conftest import run_figure_once, save_summary

N_VALUES = (10, 20, 30)
TRIALS = 10


def test_fig12_sum_gbg_topology(benchmark):
    spec = figure12_spec(alphas=("n/10", "n"), n_values=N_VALUES, trials=TRIALS)
    result = run_figure_once(benchmark, spec, seed=12)
    print()
    print(format_figure(result, "max"))
    save_summary("fig12", figure_summary(result))

    assert result.non_converged_total() == 0

    n = N_VALUES[-1]
    # topology impact bounded (compare the three settings per alpha/policy)
    for policy in ("max cost", "random"):
        for a in ("n/10", "n"):
            vals = [
                result.series[f"m=n, a={a}, {policy}"][n].mean,
                result.series[f"a={a}, rl, {policy}"][n].mean,
                result.series[f"a={a}, dl, {policy}"][n].mean,
            ]
            assert max(vals) <= 3.0 * max(min(vals), 1.0)

    # dl is the fastest (or ties) under the max cost policy
    dl = result.series["a=n/10, dl, max cost"][n].mean
    rl = result.series["a=n/10, rl, max cost"][n].mean
    assert dl <= rl * 1.2
