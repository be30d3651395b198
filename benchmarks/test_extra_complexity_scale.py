"""Extra: rounds and messages to termination at N = 2^10 ... 2^16.

Section 6.3 claims O(log^2 N) rounds and O(N log^2 N) messages;
``test_extra_complexity.py`` checks the normalized columns stay flat for
N = 100 ... 1600.  This sweep runs the paper defaults (K=4, M=2, C=1,
ucastl 0.25, pf 0.001) to termination at seven powers of two, three
seeds each, and fits the exponent ``b`` of ``ln N`` on the per-seed
points — ``rounds ~ (ln N)^b`` and ``messages/N ~ (ln N)^b`` — by least
squares on the logs, with a 95 % t interval to set against the paper's
2.  ``messages/(N ln ln N)`` is the reference column for Chen &
Pandurangan's O(N log log N)-message optimum.
"""

import math

import numpy as np
from scipy import stats

from repro.core.gridbox import GridBoxHierarchy
from repro.core.hierarchical_gossip import GossipParams
from repro.experiments.params import with_params
from repro.experiments.reporting import TableResult
from repro.experiments.runner import run_once

N_VALUES = tuple(2 ** power for power in range(10, 17))
SEEDS = (0, 1, 2)


def _fit(ns, values):
    """Slope of ``log(value)`` on ``log(ln N)`` and its 95 % interval."""
    x = np.log(np.log(np.asarray(ns, dtype=float)))
    y = np.log(np.asarray(values, dtype=float))
    fit = stats.linregress(x, y)
    half = stats.t.ppf(0.975, len(x) - 2) * fit.stderr
    return fit.slope, fit.slope - half, fit.slope + half


def _sweep():
    table = TableResult(
        title="Complexity at scale: paper defaults to termination",
        headers=["N", "seed", "rounds", "messages", "messages/N",
                 "rounds/ln^2 N", "messages/(N ln^2 N)",
                 "messages/(N ln ln N)"],
    )
    for n in N_VALUES:
        log_n = math.log(n)
        for seed in SEEDS:
            result = run_once(with_params(n=n, seed=seed))
            per_member = result.messages_sent / n
            table.rows.append([
                n, seed, result.rounds, result.messages_sent, per_member,
                result.rounds / log_n ** 2, per_member / log_n ** 2,
                per_member / math.log(log_n),
            ])
    ns = [row[0] for row in table.rows]
    fits = {
        "rounds": _fit(ns, [row[2] for row in table.rows]),
        "messages/N": _fit(ns, [row[4] for row in table.rows]),
    }
    table.notes = "; ".join(
        f"{name} ~ (ln N)^{slope:.2f} [95% {low:.2f}, {high:.2f}]"
        for name, (slope, low, high) in fits.items()
    )
    return table, fits


def test_complexity_at_scale(benchmark, record_figure):
    table, fits = benchmark.pedantic(_sweep, iterations=1, rounds=1)
    record_figure(table, name="extra_complexity_scale")

    # Every run ended by termination, inside the protocol's round
    # budget (the engine's horizon has slack beyond it).
    for row in table.rows:
        n = row[0]
        budget = GossipParams().round_budget(
            n, GridBoxHierarchy(n, 4).num_phases
        )
        assert 0 < row[2] <= budget, row
    # Neither exponent is significantly above the paper's 2: the
    # O(log^2 N) rounds and O(N log^2 N) messages are upper bounds.
    for name, (slope, low, high) in fits.items():
        assert low <= 2.0, (name, slope, low, high)
    # Normalized by ln^2 N, both columns stay within a small constant
    # factor across the 64x range of N.
    for column in (5, 6):
        values = [row[column] for row in table.rows]
        assert max(values) < 2 * min(values)
