"""Common interface for one-shot aggregation protocols.

Every protocol — the paper's Hierarchical Gossiping and all the baselines
it is compared against — is a set of :class:`AggregationProcess` instances
(one per member) driven by the simulation engine.  When a process finishes
it holds a final :class:`~repro.core.aggregates.AggregateState`; the
completeness of that estimate is the fraction of the group's initial votes
it covers (Section 2's metric).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.aggregates import AggregateFunction, AggregateState, StateTable
from repro.core.intervals import IntervalMask
from repro.sim.engine import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "AggregationProcess",
    "CompletenessReport",
    "MemberColumns",
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
        return AggregateState(
            self.function.lift_payload(self.node_id, self.vote),
            IntervalMask.single(self.slot),
        )

    def covered_ids(self, mask: IntervalMask) -> list[int]:
        """Ids of the members whose votes ``mask`` covers, in slot order."""
        return list(mask)


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


@dataclass(frozen=True)
class MemberColumns:
    """A finished group's members as columns — what the measurements read.

    Row ``i`` is one member: its id, the slot its vote occupies in
    coverage masks, whether it is alive, its result (an id into the
    :class:`~repro.core.aggregates.StateTable` ``states``; 0 = none) and
    its self-assessed coverage (NaN = not assessed).  A group runs one
    aggregate ``function``.
    """

    ids: Sequence[int]
    slots: np.ndarray
    alive: np.ndarray
    result: np.ndarray
    states: StateTable
    coverage: np.ndarray
    function: Any

    @classmethod
    def of(cls, processes) -> "MemberColumns":
        """The columns of a group of processes (anything that has no
        ``columns()`` of its own): one row per process, in order."""
        processes = list(processes)
        count = len(processes)
        function = processes[0].function if processes else None
        rows = [row for row, process in enumerate(processes)
                if process.result is not None]
        states = StateTable(function)
        result = np.zeros(count, dtype=np.int64)
        result[rows] = states.extend([processes[row].result for row in rows])
        return cls(
            ids=[process.node_id for process in processes],
            slots=np.fromiter((process.slot for process in processes),
                              dtype=np.int64, count=count),
            alive=np.fromiter((process.alive for process in processes),
                              dtype=bool, count=count),
            result=result,
            states=states,
            coverage=np.fromiter(
                (np.nan if process.coverage_fraction is None
                 else process.coverage_fraction for process in processes),
                dtype=np.float64, count=count,
            ),
            function=function,
        )


def _columns(processes) -> MemberColumns:
    columns = getattr(processes, "columns", None)
    return columns() if columns is not None else MemberColumns.of(processes)


def measure_completeness(processes, group_size: int) -> CompletenessReport:
    """Collect the completeness report for a finished run.

    ``processes`` is a group with ``columns()`` (a
    :class:`~repro.core.hierarchical_gossip.GossipGroup`) or any list of
    processes.  Surviving members are counted per coverage interval from
    one prefix sum over slot space, in one pass over the distinct
    results' ranges — O(ranges), not O(N * covered members).
    """
    columns = _columns(processes)
    report = CompletenessReport(group_size=group_size)
    alive = columns.alive
    alive_slots = columns.slots[alive]
    survivors = report.survivors = len(alive_slots)
    # alive_below[s] = surviving members whose slot is < s; coverage past
    # the last survivor's slot (crashed members, foreign slots) adds none.
    width = int(alive_slots.max()) + 1 if survivors else 0
    alive_below = np.concatenate((
        [0], np.cumsum(np.bincount(alive_slots, minlength=width))
    ))
    rows = np.flatnonzero(alive & (columns.result > 0))
    report.crashed = len(alive) - survivors
    report.unfinished = survivors - len(rows)
    sids = columns.result[rows]
    # Results that share their ranges (the table's) are counted once.
    __, first, index = np.unique(columns.states.first[sids],
                                 return_index=True, return_inverse=True)
    owner, lo, hi = columns.states.intervals(sids[first])
    included = np.bincount(
        owner, minlength=len(first), weights=(
            alive_below[np.minimum(hi + 1, width)]
            - alive_below[np.minimum(lo, width)]
        ),
    ).astype(np.int64)[index]
    members = [columns.ids[row] for row in rows.tolist()]
    report.per_member_initial = {
        member: covers / group_size for member, covers in zip(
            members, columns.states.count[sids].tolist()
        )
    }
    report.per_member = {
        member: count / survivors
        for member, count in zip(members, included.tolist())
    }
    return report


def measure_estimates(
    processes,
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
    ``processes`` is what :func:`measure_completeness` took.
    """
    columns = _columns(processes)
    measured = report.per_member
    rows = [
        row for row, member in enumerate(columns.ids) if member in measured
    ]
    if not rows:
        return float("nan"), float("nan"), {}
    sids = columns.result[rows]
    estimates = dict(zip([columns.ids[row] for row in rows],
                         columns.states.finalize(sids)))
    coverages = [
        covers / report.group_size if math.isnan(coverage) else coverage
        for covers, coverage in zip(columns.states.count[sids].tolist(),
                                    columns.coverage[rows].tolist())
    ]
    errors = [abs(value - true_value) for value in estimates.values()]
    count = len(estimates)
    return sum(errors) / count, sum(coverages) / count, estimates
