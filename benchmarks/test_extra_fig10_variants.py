"""Extra: Figure 10's crash sweep under the protocol text's two readings.

EXPERIMENTS.md's known divergence 2 says our Figure 10 curve is flatter
than the paper's because our protocol is more crash-robust.  Two of our
defaults depart from the protocol text as written: a gossip message
carries up to K values (the text sends one) and a receiver keeps the
value of larger coverage (the text keeps the first it receives).  This
re-runs the Figure 10 sweep (N=200, ucastl=0.25, pf 0.002..0.008) four
ways — the default, each reading alone, and both together, which is the
protocol text — on both incompleteness metrics.
"""

import statistics

from repro.experiments.params import with_params
from repro.experiments.reporting import TableResult
from repro.experiments.runner import run_once

PF_VALUES = (0.002, 0.004, 0.006, 0.008)
RUNS = 20
VARIANTS = {
    "default": {},
    "single-value": {"batch_values": False},
    "first-wins": {"prefer_coverage": False},
    "protocol text": {"batch_values": False, "prefer_coverage": False},
}


def _cell(pf, overrides):
    config = with_params(n=200, pf=pf, **overrides)
    results = [run_once(config.with_seed(seed)) for seed in range(RUNS)]
    return (
        statistics.fmean(r.incompleteness for r in results),
        statistics.fmean(r.incompleteness_initial for r in results),
    )


def _variants_table():
    table = TableResult(
        title=f"Figure 10 sweep by protocol reading (N=200, {RUNS} seeds)",
        headers=["variant", "pf", "incompleteness (survivor-relative)",
                 "incompleteness (vs initial votes)"],
    )
    cells = {}
    for label, overrides in VARIANTS.items():
        for pf in PF_VALUES:
            cells[label, pf] = _cell(pf, overrides)
            table.rows.append([label, pf, *cells[label, pf]])
    return table, cells


def test_fig10_variants(benchmark, record_figure):
    table, cells = benchmark.pedantic(
        _variants_table, iterations=1, rounds=1
    )
    record_figure(table, name="fig10_variants")

    # Every reading loses more votes as crashes get likelier (the
    # initial-votes metric, which counts crashed members' votes).
    for label in VARIANTS:
        initial = [cells[label, pf][1] for pf in PF_VALUES]
        assert initial[0] < initial[-1], label
    # Each departure from the text only adds completeness.
    for pf in PF_VALUES:
        text = cells["protocol text", pf][0]
        assert cells["default", pf][0] <= text
