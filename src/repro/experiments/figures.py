"""Reproductions of every figure in the paper's evaluation.

Figures 4-5 are analytic (the epidemic model of Section 6.3); Figures 6-11
are simulations (Section 7).  Each ``figN`` function returns a
:class:`~repro.experiments.reporting.FigureResult` carrying the same
series the paper plots; the benchmark files under ``benchmarks/`` call
these and assert the paper's qualitative claims about each curve's shape.

All simulated figures inherit the paper's Section 7 defaults
(:data:`~repro.experiments.params.PAPER_DEFAULTS`) and average
``runs`` independently-seeded runs per point.  ``runs`` and the sweep
lists are overridable so the benchmarks can trade precision for wall
time; the defaults are the paper's sweep values.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.epidemic import phase1_completeness
from repro.analysis.stats import summarize
from repro.experiments.parallel import run_seeds
from repro.experiments.params import RunConfig, with_params
from repro.experiments.reporting import FigureResult, Series, TableResult

__all__ = [
    "fig4_phase1_analysis",
    "fig5_phase1_vs_k",
    "fig6_scalability",
    "fig7_message_loss",
    "fig8_gossip_rate",
    "fig9_partition",
    "fig10_member_failures",
    "fig11_theorem_bound",
    "baseline_comparison",
    "complexity_scaling",
    "ext_approximate_n",
    "ext_start_spread",
    "ext_partial_views",
    "ALL_FIGURES",
]


def _simulated_series(
    label: str,
    xs: Sequence[float],
    configs: Sequence[RunConfig],
    runs: int | Sequence[int],
    jobs: int | str | None = None,
) -> Series:
    """Average incompleteness over seeded runs at each swept config.

    ``runs`` may be a single count or one count per point (large-N points
    cost much more wall time per run, so sweeps taper the repetitions);
    :func:`~repro.experiments.parallel.run_seeds` fans them out.
    """
    series = Series(label)
    for x, results in zip(xs, run_seeds(configs, runs, jobs=jobs)):
        summary = summarize([r.incompleteness for r in results])
        series.add(float(x), summary.mean, summary.mean - summary.low)
    return series


# ---------------------------------------------------------------------------
# Analytic figures (Section 6.3)
# ---------------------------------------------------------------------------

def fig4_phase1_analysis(
    n_values: Sequence[int] = (1000, 2000, 4000, 8000),
    k: int = 2,
    b: float = 4.0,
) -> FigureResult:
    """Figure 4: phase-1 incompleteness ``1 - C_1(N, K=2, b=4)`` vs N.

    The paper reads off this curve that ``C_1 >= 1 - 1/N`` (Postulate 1):
    on log-log axes the incompleteness lies below the ``1/N`` line and
    falls linearly.
    """
    measured = Series(f"1-C1(N,K={k},b={b})")
    reference = Series("analytic 1/N")
    for n in n_values:
        measured.add(n, 1.0 - phase1_completeness(n, k, b))
        reference.add(n, 1.0 / n)
    return FigureResult(
        figure_id="fig4",
        title="Variation of -log(incompleteness) vs log(N) (phase 1, analytic)",
        x_label="N",
        y_label="1-C1",
        series=[measured, reference],
        notes="Postulate 1: measured curve must stay below 1/N for b>=4.",
    )


def fig5_phase1_vs_k(
    k_values: Sequence[int] = (4, 8, 16, 32),
    n: int = 2000,
    b: float = 4.0,
) -> FigureResult:
    """Figure 5: phase-1 incompleteness vs K at N=2000, b=4.

    Completeness is monotonically increasing in K (bigger boxes spread
    votes through more redundant gossip).
    """
    measured = Series(f"1-C1(N={n},K,b={b})")
    for k in k_values:
        measured.add(k, 1.0 - phase1_completeness(n, k, b))
    return FigureResult(
        figure_id="fig5",
        title="Variation of -log(incompleteness) vs log(K) (phase 1, analytic)",
        x_label="K",
        y_label="1-C1",
        series=[measured],
        notes="Incompleteness must fall monotonically with K.",
    )


# ---------------------------------------------------------------------------
# Simulated figures (Section 7)
# ---------------------------------------------------------------------------

def fig6_scalability(
    n_values: Sequence[int] = (200, 400, 800, 1600, 3200),
    runs: int | Sequence[int] = 10,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 6: incompleteness vs group size N at the paper defaults.

    Claim: even at low gossip rates (b ~ 0.75, outside Theorem 1's
    regime), completeness does not degrade — it improves slightly — as N
    grows into the 1000s.
    """
    configs = [with_params(n=n, seed=seed) for n in n_values]
    series = _simulated_series("incompleteness (K=4,M=2)", n_values, configs,
                               runs, jobs=jobs)
    return FigureResult(
        figure_id="fig6",
        title="Scalability 1: incompleteness vs group size N",
        x_label="N",
        y_label="incompleteness",
        series=[series],
        notes="Completeness must not degrade as N rises into the 1000s.",
    )


def fig7_message_loss(
    loss_values: Sequence[float] = (0.4, 0.5, 0.6, 0.7),
    runs: int = 20,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 7: incompleteness vs unicast loss probability ``ucastl``.

    Claim: incompleteness falls exponentially fast as the network gets
    more reliable (loss decreases).
    """
    configs = [with_params(ucastl=loss, seed=seed) for loss in loss_values]
    series = _simulated_series("incompleteness (N=200,K=4,M=2)", loss_values,
                               configs, runs, jobs=jobs)
    return FigureResult(
        figure_id="fig7",
        title="Fault-tolerance 1: incompleteness vs message loss ucastl",
        x_label="ucastl",
        y_label="incompleteness",
        series=[series],
        notes="Exponential fall with decreasing loss probability.",
    )


def fig8_gossip_rate(
    round_values: Sequence[int] = (1, 2, 3, 4, 5),
    runs: int = 20,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 8: incompleteness vs gossip rounds per phase.

    With M fixed, lengthening the phase raises the gossip volume per
    value; incompleteness falls exponentially with it.
    """
    configs = [
        with_params(rounds_per_phase=rounds, seed=seed)
        for rounds in round_values
    ]
    series = _simulated_series("incompleteness (N=200,K=4,M=2)", round_values,
                               configs, runs, jobs=jobs)
    return FigureResult(
        figure_id="fig8",
        title="Effect of gossip rate: incompleteness vs rounds per phase",
        x_label="rounds/phase",
        y_label="incompleteness",
        series=[series],
        notes="Exponential fall with increasing phase length (gossip rate).",
    )


def fig9_partition(
    partl_values: Sequence[float] = (0.5, 0.55, 0.6, 0.65, 0.7),
    runs: int = 20,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 9: soft two-half partition; incompleteness vs ``partl``.

    Cross-partition messages are dropped with probability ``partl``
    (correlated loss / congestion); within each half the usual ``ucastl``
    applies.  Claim: graceful degradation as partl worsens.
    """
    configs = [with_params(partl=partl, seed=seed) for partl in partl_values]
    series = _simulated_series("incompleteness (N=200,K=4,M=2)", partl_values,
                               configs, runs, jobs=jobs)
    return FigureResult(
        figure_id="fig9",
        title="Fault-tolerance 2: incompleteness vs partition loss partl",
        x_label="partl",
        y_label="incompleteness",
        series=[series],
        notes="Graceful (not cliff-edge) degradation with partition loss.",
    )


def fig10_member_failures(
    pf_values: Sequence[float] = (0.002, 0.004, 0.006, 0.008),
    runs: int = 20,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 10: incompleteness vs per-round crash probability ``pf``.

    Claim: incompleteness falls (at least) exponentially fast as the
    member failure rate drops.  Two series: the headline
    survivor-relative metric (our protocol barely registers crashes
    there) and the initial-votes-relative metric, whose crash-dominated
    ~linear dependence on pf is cleanly resolvable.
    """
    survivor = Series("incompleteness (survivor-relative)")
    initial = Series("incompleteness (vs initial votes)")
    cells = [with_params(pf=pf, seed=seed) for pf in pf_values]
    for pf, results in zip(pf_values, run_seeds(cells, runs, jobs=jobs)):
        s = summarize([r.incompleteness for r in results])
        survivor.add(pf, s.mean, s.mean - s.low)
        s = summarize([r.incompleteness_initial for r in results])
        initial.add(pf, s.mean, s.mean - s.low)
    return FigureResult(
        figure_id="fig10",
        title="Fault-tolerance 3: incompleteness vs member failure rate pf",
        x_label="pf",
        y_label="incompleteness",
        series=[survivor, initial],
        notes="Fast fall with decreasing failure rate (initial-votes "
              "metric resolves the trend; the survivor metric sits at "
              "the measurement floor).",
    )


def fig11_theorem_bound(
    n_values: Sequence[int] = (300, 400, 500, 600),
    runs: int = 30,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Figure 11: incompleteness vs N with C=1.4 and a loss/crash-free
    network, against the Theorem 1 limit 1/N.

    b evaluates to about 1.0 here — Theorem 1's b >= 4 condition does not
    hold — yet measured incompleteness stays below 1/N, showing the bound's
    pessimism.
    """
    configs = [
        with_params(n=n, rounds_factor_c=1.4, ucastl=0.0, pf=0.0, seed=seed)
        for n in n_values
    ]
    series = _simulated_series("incompleteness (K=4,M=2,b~1.0)", n_values,
                               configs, runs, jobs=jobs)
    reference = Series("analytic 1/N")
    for n in n_values:
        reference.add(n, 1.0 / n)
    return FigureResult(
        figure_id="fig11",
        title="Scalability 2: incompleteness vs N against the 1/N bound",
        x_label="N",
        y_label="incompleteness",
        series=[series, reference],
        notes="Measured incompleteness must stay below 1/N.",
    )


# ---------------------------------------------------------------------------
# Extensions beyond the paper's plots
# ---------------------------------------------------------------------------

def baseline_comparison(
    protocols: Sequence[str] = (
        "hierarchical_gossip", "flood", "centralized", "leader_election",
        "flat_gossip",
    ),
    n: int = 200,
    runs: int = 10,
    seed: int = 0,
    ucastl: float = 0.25,
    pf: float = 0.001,
    committee_size: int = 1,
    jobs: int | str | None = None,
) -> TableResult:
    """Extra A: all protocols under the same faults (Sections 4, 5, 6.2).

    Columns: mean completeness, mean incompleteness, messages sent, bytes,
    rounds to completion — the three metrics of Section 2 side by side.
    """
    table = TableResult(
        title=f"Baseline comparison (N={n}, ucastl={ucastl}, pf={pf})",
        headers=["protocol", "completeness", "incompleteness", "messages",
                 "bytes", "rounds"],
    )
    cells = [
        with_params(
            n=n, protocol=protocol, ucastl=ucastl, pf=pf,
            committee_size=committee_size, seed=seed,
        )
        for protocol in protocols
    ]
    for protocol, results in zip(protocols,
                                 run_seeds(cells, runs, jobs=jobs)):
        table.rows.append([
            protocol,
            summarize([r.completeness for r in results]).mean,
            summarize([r.incompleteness for r in results]).mean,
            summarize([r.messages_sent for r in results]).mean,
            summarize([r.bytes_sent for r in results]).mean,
            summarize([r.rounds for r in results]).mean,
        ])
    return table


def complexity_scaling(
    n_values: Sequence[int] = (100, 200, 400, 800, 1600),
    runs: int = 3,
    seed: int = 0,
    jobs: int | str | None = None,
) -> TableResult:
    """Extra B: measured message/time complexity of Hierarchical Gossiping.

    The paper claims O(N log^2 N) messages and O(log^2 N) rounds; the
    normalized columns must stay roughly flat as N doubles.
    """
    import math

    table = TableResult(
        title="Complexity scaling of Hierarchical Gossiping",
        headers=["N", "messages", "rounds", "messages/(N ln^2 N)",
                 "rounds/ln^2 N"],
    )
    cells = [with_params(n=n, seed=seed) for n in n_values]
    for n, results in zip(n_values, run_seeds(cells, runs, jobs=jobs)):
        messages = summarize([r.messages_sent for r in results]).mean
        rounds = summarize([float(r.rounds) for r in results]).mean
        log_sq = math.log(n) ** 2
        table.rows.append([
            n, messages, rounds, messages / (n * log_sq), rounds / log_sq,
        ])
    return table


def ext_approximate_n(
    factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    n: int = 200,
    runs: int = 10,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Extension: hierarchy built from an *estimate* of N (Section 6.1).

    Paper claim: "an approximate estimate of N at each member usually
    suffices" — so the group-size updates that keep the hash well-known
    can be infrequent.  We build the hierarchy for ``factor * N`` members
    while the true group stays at N, and measure the damage (none
    expected across a 16x range of error).
    """
    configs = [
        with_params(n=n, n_estimate=max(2, int(factor * n)), seed=seed)
        for factor in factors
    ]
    series = _simulated_series(
        f"incompleteness (true N={n})", factors, configs, runs, jobs=jobs
    )
    return FigureResult(
        figure_id="ext_approx_n",
        title="Extension: sensitivity to the group-size estimate",
        x_label="estimate/N",
        y_label="incompleteness",
        series=[series],
        notes="Over-estimates are free; under-estimates shrink boxes and "
              "round budget and cost completeness (asymmetric tolerance).",
    )


def ext_start_spread(
    spreads: Sequence[int] = (0, 1, 2, 4, 8),
    n: int = 200,
    runs: int = 10,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Extension: multicast-wave initiation instead of simultaneous start.

    Paper claim (Section 2): "the protocol is assumed to be initiated
    simultaneously at all members, but our results apply in cases such as
    a multicast being used for protocol initiation."  Member start rounds
    are drawn uniformly from [0, spread]; small spreads (a real multicast
    wave is a round or two) should cost almost nothing, with graceful
    degradation beyond.
    """
    configs = [
        with_params(n=n, start_spread=spread, seed=seed)
        for spread in spreads
    ]
    series = _simulated_series(
        f"incompleteness (N={n})", spreads, configs, runs, jobs=jobs
    )
    return FigureResult(
        figure_id="ext_start_spread",
        title="Extension: tolerance to asynchronous protocol initiation",
        x_label="start spread (rounds)",
        y_label="incompleteness",
        series=[series],
        notes="Near-zero cost for realistic multicast spreads (1-2 rounds).",
    )


def ext_partial_views(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    n: int = 200,
    runs: int = 10,
    seed: int = 0,
    jobs: int | str | None = None,
) -> FigureResult:
    """Extension: partial membership views (Section 2).

    Paper claim: the all-know-all view assumption "can be relaxed in our
    final hierarchical gossiping solution."  Each member knows a uniform
    random ``fraction`` of the group; gossipee selection and phase
    expectations are computed from the view only.
    """
    configs = [
        with_params(
            n=n,
            view_size=max(2, int(fraction * n)),
            seed=seed,
        )
        for fraction in fractions
    ]
    series = _simulated_series(
        f"incompleteness (N={n})", fractions, configs, runs, jobs=jobs
    )
    return FigureResult(
        figure_id="ext_partial_views",
        title="Extension: partial membership views",
        x_label="view fraction",
        y_label="incompleteness",
        series=[series],
        notes="Graceful degradation as views shrink; near-complete at "
              "half views.",
    )


#: figure id -> callable, for the CLI.
ALL_FIGURES = {
    "fig4": fig4_phase1_analysis,
    "fig5": fig5_phase1_vs_k,
    "fig6": fig6_scalability,
    "fig7": fig7_message_loss,
    "fig8": fig8_gossip_rate,
    "fig9": fig9_partition,
    "fig10": fig10_member_failures,
    "fig11": fig11_theorem_bound,
    "baselines": baseline_comparison,
    "complexity": complexity_scaling,
    "approx-n": ext_approximate_n,
    "start-spread": ext_start_spread,
    "partial-views": ext_partial_views,
}
