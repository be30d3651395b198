"""Small statistics toolkit for the experiment harness.

Everything the benchmarks need to summarize repeated protocol runs and to
check the *shape* claims of the paper's figures (exponential falls,
power-law bounds) without eyeballing plots:

* :func:`summarize` — mean / standard error / Student-t confidence bounds;
* :func:`loglog_slope` — least-squares slope of ``log y`` vs ``log x``
  (power-law exponent; Figure 4's linearity check);
* :func:`semilog_slope` — slope of ``log y`` vs ``x`` (exponential-decay
  rate; Figures 7, 8, 10);
* :func:`is_monotone` — tolerant monotonicity check for noisy series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

__all__ = ["Summary", "summarize", "loglog_slope", "semilog_slope", "is_monotone"]


@dataclass(frozen=True)
class Summary:
    """Mean with uncertainty for one experiment cell."""

    mean: float
    std_error: float
    low: float
    high: float
    n: int


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean and Student-t confidence interval of repeated measurements."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize zero samples")
    mean = float(values.mean())
    if values.size == 1:
        return Summary(mean, 0.0, mean, mean, 1)
    sem = float(values.std(ddof=1) / math.sqrt(values.size))
    if sem == 0.0:
        return Summary(mean, 0.0, mean, mean, int(values.size))
    from scipy import stats as sps  # ~0.5 s to import: only where used

    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, values.size - 1))
    return Summary(
        mean=mean,
        std_error=sem,
        low=mean - t_crit * sem,
        high=mean + t_crit * sem,
        n=int(values.size),
    )


def _clean_pairs(
    xs: Sequence[float], ys: Sequence[float], log_x: bool, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(list(xs), dtype=float)
    y = np.maximum(np.asarray(list(ys), dtype=float), floor)
    if x.shape != y.shape:
        raise ValueError("xs and ys must have the same length")
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if log_x and np.any(x <= 0):
        raise ValueError("log-x fit requires positive xs")
    return x, y


def loglog_slope(
    xs: Sequence[float], ys: Sequence[float], floor: float = 1e-300
) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    For ``y ~ x^a`` this recovers ``a``; zero/negative ys are floored so
    perfectly-complete cells don't blow up the fit.
    """
    x, y = _clean_pairs(xs, ys, log_x=True, floor=floor)
    slope, __ = np.polyfit(np.log(x), np.log(y), deg=1)
    return float(slope)


def semilog_slope(
    xs: Sequence[float], ys: Sequence[float], floor: float = 1e-300
) -> float:
    """Least-squares slope of ``log y`` against ``x`` (decay rate)."""
    x, y = _clean_pairs(xs, ys, log_x=False, floor=floor)
    slope, __ = np.polyfit(x, np.log(y), deg=1)
    return float(slope)


def is_monotone(
    values: Sequence[float], increasing: bool = True, tolerance: float = 0.0
) -> bool:
    """Whether a series is monotone, allowing ``tolerance`` of backslide.

    ``tolerance`` is relative to the magnitude of the preceding value, so
    noisy simulation series with an unmistakable trend still pass.
    """
    items = list(values)
    for previous, current in zip(items, items[1:]):
        slack = tolerance * max(abs(previous), 1e-12)
        if increasing and current < previous - slack:
            return False
        if not increasing and current > previous + slack:
            return False
    return True
