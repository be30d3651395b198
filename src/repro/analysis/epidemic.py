"""Epidemic analysis of the Hierarchical Gossiping protocol (Section 6.3).

The paper models the spread of each gossiped value as a deterministic
epidemic (Bailey 1975).  With ``m`` members, one initial infective, and
each infective contacting ``b`` random members per round, the infected
count ``y`` follows the logistic

    dy/dt = (b/m) * y * (m - y),   y(0) = 1
    =>  y(t) = m / (1 + (m - 1) * exp(-b t))

(the paper approximates ``m - 1 ~ m``).  In phase ``i`` of the protocol a
member holds up to ``K`` values and pushes *one randomly chosen* value per
round, so each value's effective per-round contact rate is ``b / K``; over
the phase's ``K log N`` rounds each value accumulates ``b log N`` effective
contact-rounds, giving the paper's phase-``i`` completeness bound

    C_i(N, K, b) >= 1 / (1 + N exp(-b log N)) ~= 1 - 1 / N^(b-1).

Phase 1 is different: a grid box holds a Binomial(N, K/N) number of
members ``i``, and all ``i`` votes circulate, so each vote's rate is
``b / i`` over ``K log N`` rounds:

    C_1(N, K, b) = sum_i Binom(N, K/N)(i) * 1 / (1 + i exp(-K b log N / i)).

Postulate 1 (validated by the paper's Figures 4-5 and our property tests):
for ``K >= 2`` and ``b >= 4``, ``C_1 >= 1 - 1/N``.  Theorem 1 combines the
phases:

    completeness >= C_1 * C_i^(log_K N - 1)
                 >= (1 - 1/N) (1 - 1/N^(b-1))^(log_K N - 1)  ~=  1 - 1/N.

All functions here are pure and vectorization-friendly; they power the
Figure 4, 5 and 11 benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "logistic_infected",
    "infected_fraction",
    "phase_completeness_bound",
    "phase_completeness_approx",
    "phase1_completeness",
    "phase1_postulate_bound",
    "theorem1_bound",
    "theorem1_approx",
    "effective_contact_rate",
    "num_phases",
]


def logistic_infected(m: float, b: float, t: float) -> float:
    """Bailey's infected count ``y(t)`` for an ``m``-member epidemic."""
    if m <= 0:
        raise ValueError("m must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    return m / (1.0 + (m - 1.0) * math.exp(-b * t))


def infected_fraction(m: float, b: float, t: float) -> float:
    """Probability a random member is infected after ``t`` rounds."""
    return logistic_infected(m, b, t) / m


def num_phases(n: int, k: int) -> float:
    """The paper's phase count ``log_K N`` (real-valued, for analysis)."""
    if n < 1 or k < 2:
        raise ValueError("need N >= 1 and K >= 2")
    return math.log(n) / math.log(k)


def phase_completeness_bound(n: int, b: float) -> float:
    """Lower bound on ``C_i`` for phases ``i > 1`` (exact logistic form).

    ``1 / (1 + N exp(-b log N))``: the worst case where the phase's
    subtree contains all N members.
    """
    if n < 1:
        raise ValueError("N must be positive")
    return 1.0 / (1.0 + n * math.exp(-b * math.log(n)))


def phase_completeness_approx(n: int, b: float) -> float:
    """The paper's simplification of the bound: ``1 - 1/N^(b-1)``."""
    if n < 2:
        raise ValueError("N must be at least 2")
    return 1.0 - n ** (1.0 - b)


def phase1_completeness(n: int, k: int, b: float) -> float:
    """Exact expected phase-1 completeness ``C_1(N, K, b)``.

    Expectation over the Binomial(N, K/N) grid-box occupancy of the
    logistic spread of each vote within the box during the phase's
    ``K log N`` rounds (paper's displayed sum; the empty-box term is
    vacuously complete).
    """
    if not (n >= 1 and 2 <= k <= n):
        raise ValueError(f"need 2 <= K <= N, got N={n}, K={k}")
    from scipy import stats  # ~0.5 s to import: only where used

    sizes = np.arange(0, n + 1)
    weights = stats.binom.pmf(sizes, n, k / n)
    terms = np.ones_like(weights)
    occupied = sizes >= 1
    i = sizes[occupied].astype(float)
    exponent = -k * b * math.log(n) / i
    terms[occupied] = 1.0 / (1.0 + i * np.exp(exponent))
    # Guard the tiny positive float error the weighted sum can accumulate.
    return float(min(1.0, max(0.0, np.sum(weights * terms))))


def phase1_postulate_bound(n: int) -> float:
    """Postulate 1: for ``K >= 2, b >= 4``, ``C_1 >= 1 - 1/N``."""
    if n < 1:
        raise ValueError("N must be positive")
    return 1.0 - 1.0 / n


def theorem1_bound(n: int, k: int, b: float) -> float:
    """Theorem 1's completeness lower bound, exact product form.

    ``(1 - 1/N) * (1 - 1/N^(b-1))^(log_K N - 1)``.
    """
    phases = num_phases(n, k)
    return phase1_postulate_bound(n) * phase_completeness_approx(n, b) ** max(
        0.0, phases - 1.0
    )


def theorem1_approx(n: int) -> float:
    """Theorem 1's headline form: completeness ``>= 1 - 1/N``."""
    return 1.0 - 1.0 / n


def effective_contact_rate(
    fanout_m: int, ucastl: float = 0.0, pf: float = 0.0
) -> float:
    """Estimate the paper's ``b`` from simulator parameters.

    ``b`` is the average number of members a gossip *successfully* reaches
    per round: the fanout ``M`` thinned by message loss and by the chance
    the receiver is already dead.  The paper notes that with the Section 7
    defaults ``b`` "evaluates to about 0.75" — additional thinning comes
    from phase truncation; this helper gives the first-order value used to
    decide whether a configuration is inside Theorem 1's ``b >= 4`` regime.
    """
    if fanout_m < 1:
        raise ValueError("fanout must be >= 1")
    return fanout_m * (1.0 - ucastl) * (1.0 - pf)
