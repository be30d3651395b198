"""Periodic aggregation sessions — the paper's Section 2 extension.

The DSN 2001 protocol is one-shot; the paper notes it "can be extended to
one which periodically calculates the global aggregate".
:class:`MonitoringSession` is that extension as a library feature: it runs
one protocol instance per *epoch* over a persistent group (crashed members
stay crashed across epochs, matching crash-without-recovery), re-sampling
votes each epoch and recording what the group would have acted on —
including threshold triggers, the airplane-wing "release coolant when the
average crosses 30C" pattern from the paper's introduction.

The hierarchy is rebuilt per epoch with a fresh hash salt, which both
load-balances grid-box roles across epochs and exercises the paper's
point that the hash can be "modified on the fly".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import repro.sanitize as sanitize
from repro.core.aggregates import get_aggregate
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.observe import PhaseSink
from repro.core.protocol import measure_completeness, measure_estimates
from repro.obs.metrics import TeePhaseSink
from repro.obs.phase import PhaseTrace
from repro.sim.engine import SimulationEngine
from repro.sim.failures import CrashWithoutRecovery, NoFailures
from repro.sim.network import LossyNetwork
from repro.sim.rng import RngRegistry

__all__ = ["Trigger", "EpochResult", "MonitoringSession"]


@dataclass(frozen=True)
class Trigger:
    """A per-member actuation rule evaluated on each epoch's estimate.

    ``direction`` is "above" or "below"; a trigger *fires* at a member
    when that member's finalized estimate crosses the threshold.
    """

    name: str
    threshold: float
    direction: str = "above"

    def __post_init__(self):
        if self.direction not in ("above", "below"):
            raise ValueError("direction must be 'above' or 'below'")

    def fires(self, value: float) -> bool:
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold


@dataclass
class EpochResult:
    """Everything observed in one monitoring epoch."""

    epoch: int
    group_size: int
    survivors: int
    true_value: float
    mean_estimate: float
    mean_completeness: float
    rounds: int
    messages: int
    #: trigger name -> number of surviving members whose estimate fired it
    trigger_counts: dict[str, int] = field(default_factory=dict)
    #: ``bump_up_timeout`` events this epoch: members that hit a phase
    #: deadline with child values still missing (the protocol's loss
    #: signal, cheaper than re-deriving it from completeness).
    phase_timeouts: int = 0

    @property
    def estimate_error(self) -> float:
        return abs(self.mean_estimate - self.true_value)


class MonitoringSession:
    """Epoch-by-epoch global aggregation over a persistent group.

    ``sample_votes(epoch, member_ids, rng)`` supplies each epoch's votes
    (e.g. re-reading drifting sensors).  Crashes accumulate across
    epochs; a session ends early if the whole group dies.
    """

    def __init__(
        self,
        group_size: int,
        sample_votes: Callable[[int, list[int], np.random.Generator],
                               dict[int, float]],
        aggregate: str = "average",
        k: int = 4,
        ucastl: float = 0.0,
        pf: float = 0.0,
        rounds_factor_c: float = 1.2,
        seed: int = 0,
    ):
        if group_size < 1:
            raise ValueError("group_size must be positive")
        self.sample_votes = sample_votes
        self.function = get_aggregate(aggregate)
        self.k = k
        self.ucastl = ucastl
        self.pf = pf
        self.rounds_factor_c = rounds_factor_c
        self.seed = seed
        self.members: list[int] = list(range(group_size))
        self.triggers: list[Trigger] = []
        self.history: list[EpochResult] = []

    def add_trigger(self, trigger: Trigger) -> "MonitoringSession":
        self.triggers.append(trigger)
        return self

    @property
    def alive_count(self) -> int:
        return len(self.members)

    def run_epoch(
        self, phase_sink: PhaseSink | None = None
    ) -> EpochResult | None:
        """Run one aggregation epoch; None if the group has died out.

        ``phase_sink`` additionally receives every protocol phase event
        (see :mod:`repro.core.observe`) — e.g. a
        :class:`~repro.obs.phase.PhaseTrace` for full per-epoch traces.
        Timeout counting for :attr:`EpochResult.phase_timeouts` happens
        regardless; attaching a sink never changes epoch results.
        """
        if not self.members:
            return None
        epoch = len(self.history)
        rngs = RngRegistry(self.seed).spawn("epoch", epoch)
        votes = self.sample_votes(
            epoch, list(self.members), rngs.stream("votes")
        )
        if set(votes) != set(self.members):
            raise ValueError(
                "sample_votes must return exactly one vote per live member"
            )
        hierarchy = GridBoxHierarchy(len(votes), self.k)
        assignment = GridAssignment(
            hierarchy, votes, FairHash(salt=self.seed * 1000 + epoch)
        )
        params = GossipParams(rounds_factor_c=self.rounds_factor_c)
        counts = PhaseTrace(store_events=False)
        sink: PhaseSink = (
            counts if phase_sink is None
            else TeePhaseSink(counts, phase_sink)
        )
        processes = build_hierarchical_gossip_group(
            votes, self.function, assignment, params, phase_sink=sink
        )
        engine = SimulationEngine(
            network=LossyNetwork(
                ucastl=self.ucastl, max_message_size=1 << 20
            ),
            failure_model=(
                CrashWithoutRecovery(self.pf) if self.pf > 0 else NoFailures()
            ),
            rngs=rngs,
            max_rounds=(
                params.round_budget(len(votes), hierarchy.num_phases) + 50
            ),
        )
        engine.add_processes(processes)
        # Install the epoch's votes as sanitizer ground truth (when the
        # sanitizer is active): without it the mass-conservation and
        # foreign-member checks silently degrade to mask-only mode for
        # every monitoring epoch.  Draws nothing and mutates nothing, so
        # epoch results are identical either way.
        if sanitize.ACTIVE:
            sanitize.begin_run(votes, self.function)
        try:
            engine.run()
        finally:
            if sanitize.ACTIVE:
                sanitize.end_run()

        report = measure_completeness(processes, group_size=len(votes))
        true_value = self.function.finalize(self.function.over(votes))
        __, __, by_member = measure_estimates(processes, report, true_value)
        estimates = list(by_member.values())
        mean_estimate = (
            sum(estimates) / len(estimates) if estimates else float("nan")
        )
        trigger_counts = {
            trigger.name: sum(
                1 for value in estimates if trigger.fires(value)
            )
            for trigger in self.triggers
        }
        result = EpochResult(
            epoch=epoch,
            group_size=len(votes),
            survivors=report.survivors,
            true_value=true_value,
            mean_estimate=mean_estimate,
            mean_completeness=report.mean_completeness,
            rounds=engine.round,
            messages=engine.network.stats.sent,
            trigger_counts=trigger_counts,
            phase_timeouts=sum(counts.phase_timeouts.values()),
        )
        self.history.append(result)
        self.members = [p.node_id for p in processes if p.alive]
        return result

    def run_epochs(
        self, count: int, phase_sink: PhaseSink | None = None
    ) -> list[EpochResult]:
        """Run up to ``count`` epochs (stops early if the group dies)."""
        results = []
        for __ in range(count):
            result = self.run_epoch(phase_sink=phase_sink)
            if result is None:
                break
            results.append(result)
        return results
