"""End-to-end completeness prediction from the epidemic model.

Composes the per-phase epidemic analysis of Section 6.3 — with the
faithful discrete-time recurrence of
:mod:`repro.analysis.validation` instead of the continuous logistic —
into a prediction of the whole protocol's expected completeness for a
concrete parameter point ``(N, K, M, C, ucastl)``:

* effective contact rate ``b = M (1 - ucastl)`` per round;
* phase 1: expectation over the Binomial(N, K_eff/N) grid-box occupancy
  of each vote's spread within its box (votes beyond the ``K``-value
  batch cap thin the per-value rate by ``K / size``);
* phases ``i > 1``: each of the K child aggregates spreads through the
  height-``i`` subtree at full batch rate;
* completeness ~ product of the per-phase inclusion probabilities, as in
  the paper's Theorem 1 derivation.

This is a *mean-field, pessimistic* prediction: it ignores the
mechanisms that make the real protocol better than per-phase spread —
coverage-preferring version adoption (a vote missed at phase 1 rides in
on a more complete aggregate later) and the global final-phase deadline
(early finishers keep serving stragglers) — so it upper-bounds the
simulated incompleteness while tracking its shape, just as the paper's
Theorem 1 upper-bounds with far more slack.  The ``extra_prediction``
benchmark quantifies both properties along the Figure 7 sweep.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.validation import discrete_epidemic
from repro.core.gridbox import GridBoxHierarchy
from repro.core.hierarchical_gossip import rounds_per_phase_for

__all__ = ["predict_completeness", "predict_incompleteness"]


def _spread_fraction(
    m: int, b: float, rounds: int, x0: float = 1.0
) -> float:
    """Probability a random member holds a given value after ``rounds``.

    ``x0`` is how many members hold the value when the phase begins —
    one for a phase-1 vote, but a whole child subtree for a phase-``i``
    child aggregate (its members composed it themselves).
    """
    if m <= 1:
        return 1.0
    trajectory = discrete_epidemic(m, b, rounds, x0=min(float(m), x0))
    return min(1.0, trajectory[-1] / m)


def _phase1_completeness(
    n: int, num_boxes: int, b: float, rounds: int, max_batch: int
) -> float:
    """Expected vote-inclusion probability within a grid box.

    Expectation over box occupancy ``s ~ Binomial(N, 1/num_boxes)``; with
    ``s`` votes circulating and at most ``max_batch`` per message, each
    vote's effective rate is ``b * min(1, max_batch / s)``.
    """
    from scipy import stats  # ~0.5 s to import: only where used

    sizes = np.arange(1, min(n, 12 * max(1, n // num_boxes) + 12) + 1)
    weights = stats.binom.pmf(sizes, n, 1.0 / num_boxes)
    # condition on the box being non-empty and renormalize by vote mass:
    # a random vote lands in a box of size s with probability ~ s*pmf(s).
    vote_mass = weights * sizes
    total = vote_mass.sum()
    if total <= 0:
        return 1.0
    value = 0.0
    for size, mass in zip(sizes, vote_mass):
        rate = b * min(1.0, max_batch / float(size))
        value += mass * _spread_fraction(int(size), rate, rounds)
    return float(value / total)


def predict_completeness(
    n: int,
    k: int = 4,
    fanout_m: int = 2,
    rounds_factor_c: float = 1.0,
    ucastl: float = 0.0,
    rounds_per_phase: int | None = None,
    max_batch: int | None = None,
) -> float:
    """Mean-field expected completeness of Hierarchical Gossiping."""
    if not 0.0 <= ucastl <= 1.0:
        raise ValueError("ucastl must be a probability")
    hierarchy = GridBoxHierarchy(n, k)
    if rounds_per_phase is None:
        rounds_per_phase = rounds_per_phase_for(n, rounds_factor_c, fanout_m)
    # one round of each phase is spent on delivery latency
    effective_rounds = max(1, rounds_per_phase - 1)
    b = fanout_m * (1.0 - ucastl)
    cap = max_batch if max_batch is not None else k
    completeness = _phase1_completeness(
        n, hierarchy.num_boxes, b, effective_rounds, cap
    )
    for phase in range(2, hierarchy.num_phases + 1):
        subtree_size = max(
            2, round(n / k ** (hierarchy.num_phases - phase))
        )
        # A sibling child aggregate enters the phase already held by the
        # child subtree's own members (about 1/K of the phase subtree).
        initial = max(1.0, subtree_size / k)
        completeness *= _spread_fraction(
            subtree_size, b, effective_rounds, x0=initial
        )
    return min(1.0, max(0.0, completeness))


def predict_incompleteness(n: int, **kwargs) -> float:
    """``1 - predict_completeness`` (the paper's plotted quantity)."""
    return 1.0 - predict_completeness(n, **kwargs)
