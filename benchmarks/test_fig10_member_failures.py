"""Figure 10 reproduction: incompleteness vs member crash rate.

Paper claim ("Fault-tolerance 3"): incompleteness falls very quickly
(faster than exponential) with a falling per-round member failure rate
``pf``.
"""

from conftest import run_figure

from repro.analysis.stats import is_monotone
from repro.experiments.figures import fig10_member_failures

PF_VALUES = (0.002, 0.004, 0.006, 0.008)


def test_fig10_member_failures(benchmark, record_figure):
    figure = run_figure(
        benchmark, fig10_member_failures, pf_values=PF_VALUES, runs=60
    )
    record_figure(figure)
    survivor, initial = figure.series

    # Our protocol (batched gossip) is *more* crash-robust than the
    # paper's simulator: on the survivor-relative metric crashes barely
    # register at N=200 (1e-6 to 1e-4), so the steep fall is checked on
    # the initial-votes metric whose crash-dominated dependence is
    # resolved in every run (see EXPERIMENTS.md).
    assert is_monotone(initial.ys, increasing=True, tolerance=0.25)
    assert initial.ys[0] <= initial.ys[-1] / 2
    # Survivor-relative: stays tiny across the whole sweep — the votes
    # that survive are essentially always all aggregated.
    assert max(survivor.ys) < 1e-3
