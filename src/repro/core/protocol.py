"""Common interface for one-shot aggregation protocols.

Every protocol — the paper's Hierarchical Gossiping and all the baselines
it is compared against — is a set of :class:`AggregationProcess` instances
(one per member) driven by the simulation engine.  When a process finishes
it holds a final :class:`~repro.core.aggregates.AggregateState`; the
completeness of that estimate is the fraction of the group's initial votes
it covers (Section 2's metric).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.core.aggregates import AggregateFunction, AggregateState
from repro.core.intervals import IntervalMask
from repro.sim.engine import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "AggregationProcess",
    "CompletenessReport",
    "draw_votes",
    "vote_block",
    "measure_completeness",
    "measure_estimates",
]


def vote_block(
    rngs: RngRegistry, group_size: int, low: float, high: float
) -> np.ndarray:
    """Uniform votes of members ``0..group_size-1`` as one float64 array.

    The one vote draw of both substrates (one ``random(n)`` block on the
    ``votes`` stream): the experiment runner keeps the whole block
    (:func:`draw_votes`), a live node derives the same block locally and
    keeps only its own entry — which is what makes the cross-runtime
    aggregate comparable.
    """
    return low + (high - low) * rngs.stream("votes").random(group_size)


def draw_votes(
    rngs: RngRegistry, group_size: int, low: float, high: float
) -> dict[int, float]:
    """:func:`vote_block` as a ``{member id: vote}`` map."""
    return dict(enumerate(vote_block(rngs, group_size, low, high).tolist()))


class AggregationProcess(Process):
    """A group member participating in a one-shot aggregation.

    Subclasses set :attr:`result` when (and only when) they have a final
    global estimate; a process that crashes first simply leaves it None.
    """

    def __init__(
        self,
        node_id: int,
        vote: float,
        function: AggregateFunction,
    ):
        super().__init__(node_id)
        # Not coerced: ProductAggregate votes are per-component sequences.
        self.vote = vote
        self.function = function
        #: Final global estimate; None until the protocol finishes here.
        self.result: AggregateState | None = None
        #: Explicit coverage of :attr:`result`: the fraction of the group
        #: the process *believes* its estimate covers, set by protocols
        #: that support graceful degradation.  ``None`` means the
        #: protocol did not self-assess (legacy behavior: the estimate is
        #: silently partial); consumers fall back to
        #: ``result.covers() / group_size``.
        self.coverage_fraction: float | None = None

    @property
    def partial_result(self) -> bool | None:
        """Whether the process knowingly finished with a partial estimate.

        ``None`` until the protocol both finishes and self-assesses its
        coverage (see :attr:`coverage_fraction`).
        """
        if self.result is None or self.coverage_fraction is None:
            return None
        return self.coverage_fraction < 1.0

    @property
    def slot(self) -> int:
        """The slot this member's vote occupies in coverage masks.

        The member id unless the protocol numbers votes differently (the
        hierarchical protocol uses hierarchy rank); whatever it is, every
        member of one run must use the same numbering.
        """
        return self.node_id

    def own_state(self) -> AggregateState:
        """This member's vote as a single-member aggregate at its slot."""
        state = self.function.lift(self.node_id, self.vote)
        slot = self.slot
        if slot == self.node_id:
            return state
        return AggregateState(state.payload, IntervalMask.single(slot))

    def covered_ids(self, mask: IntervalMask) -> list[int]:
        """Ids of the members whose votes ``mask`` covers, in slot order."""
        return list(mask)

    def completeness(self, group_size: int) -> float | None:
        """Fraction of the initial votes covered by :attr:`result`."""
        if self.result is None:
            return None
        return self.result.covers() / group_size


@dataclass
class CompletenessReport:
    """Completeness statistics over one finished run (paper's metric).

    Two denominators are reported:

    * **survivor-relative** (``per_member``, the headline used by the
      figures): the fraction of *surviving* members' votes included in a
      surviving member's final estimate.  A member that crashed mid-run is
      no longer part of the group, and counting its inevitably-lost vote
      would put a floor of about ``pf`` under every curve — the paper's
      Figure 10 falls far faster than that floor, so its metric must be
      survivor-relative too.
    * **initial-relative** (``per_member_initial``): the fraction of all
      ``N`` initial votes included (crashed members' votes can still count
      when they were disseminated before the crash).
    """

    group_size: int
    survivors: int = 0
    per_member: dict[int, float] = field(default_factory=dict)
    per_member_initial: dict[int, float] = field(default_factory=dict)
    crashed: int = 0
    unfinished: int = 0

    @property
    def mean_completeness(self) -> float:
        """Survivor-relative completeness at a random surviving member.

        A run where *nobody* finished counts as completeness 0.
        """
        if not self.per_member:
            return 0.0
        return statistics.fmean(self.per_member.values())

    @property
    def mean_completeness_initial(self) -> float:
        """Completeness relative to all ``N`` initial votes."""
        if not self.per_member_initial:
            return 0.0
        return statistics.fmean(self.per_member_initial.values())

    @property
    def mean_incompleteness(self) -> float:
        return 1.0 - self.mean_completeness

    @property
    def min_completeness(self) -> float:
        return min(self.per_member.values(), default=0.0)


def measure_completeness(
    processes: list[AggregationProcess], group_size: int
) -> CompletenessReport:
    """Collect the completeness report for a finished run.

    Surviving members are counted per coverage interval from one prefix
    sum over slot space — O(N * intervals), not O(N * covered members).
    """
    report = CompletenessReport(group_size=group_size)
    alive_slots = [process.slot for process in processes if process.alive]
    report.survivors = len(alive_slots)
    # alive_below[s] = surviving members whose slot is < s; coverage past
    # the last survivor's slot (crashed members, foreign slots) adds none.
    width = max(alive_slots, default=-1) + 1
    flags = [0] * width
    for slot in alive_slots:
        flags[slot] = 1
    alive_below = [0, *accumulate(flags)]
    for process in processes:
        if not process.alive:
            report.crashed += 1
            continue
        if process.result is None:
            report.unfinished += 1
            continue
        report.per_member_initial[process.node_id] = (
            process.result.covers() / group_size
        )
        included_survivors = sum(
            alive_below[min(hi + 1, width)] - alive_below[min(lo, width)]
            for lo, hi in process.result.members.intervals()
        )
        report.per_member[process.node_id] = (
            included_survivors / len(alive_slots) if alive_slots else 0.0
        )
    return report


def measure_estimates(
    processes: list[AggregationProcess],
    report: CompletenessReport,
    true_value: float,
) -> tuple[float, float, dict[int, float]]:
    """Mean absolute error, mean coverage and per-member estimates.

    All three are taken over exactly ``report.per_member``'s member set
    (survivors that finalized), so they can never drift from the
    survivor-relative completeness metric.  Coverage is the member's
    self-assessed :attr:`~AggregationProcess.coverage_fraction`, falling
    back to ``result.covers() / group_size`` for protocols that do not
    self-assess.  Both means are ``nan`` when no member qualifies.
    """
    estimates: dict[int, float] = {}
    coverages = []
    for process in processes:
        if process.node_id not in report.per_member:
            continue
        estimates[process.node_id] = process.function.finalize(
            process.result
        )
        coverage = process.coverage_fraction
        if coverage is None:
            coverage = process.completeness(report.group_size)
        coverages.append(coverage)
    if not estimates:
        return float("nan"), float("nan"), estimates
    errors = [abs(value - true_value) for value in estimates.values()]
    count = len(estimates)
    return sum(errors) / count, sum(coverages) / count, estimates
