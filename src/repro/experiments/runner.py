"""Assemble and execute aggregation runs from a :class:`RunConfig`.

This is the glue between the substrate (:mod:`repro.sim`), the hierarchy
and protocols (:mod:`repro.core`, :mod:`repro.baselines`) and the
experiment definitions (:mod:`repro.experiments.figures`).  One
:func:`run_once` builds the whole world — votes, hash, hierarchy, network,
failure model, one process per member — runs it to completion and returns
the measurements the paper reports.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.baselines.centralized import build_centralized_group
from repro.baselines.flat_gossip import build_flat_gossip_group
from repro.chaos.adversary import AdversarialSummary
from repro.baselines.flood import build_flood_group
from repro.baselines.leader_election import build_leader_election_group
from repro.core.aggregates import get_aggregate
from repro.core.gridbox import (
    GridAssignment,
    GridBoxHierarchy,
    shared_dense_assignment,
)
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.observe import PhaseSink
from repro.core.protocol import (
    AggregationProcess,
    CompletenessReport,
    draw_votes,
    measure_completeness,
    measure_estimates,
)
from repro.experiments.params import ConfigError, RunConfig
from repro.obs.export import run_result_record
from repro.obs.telemetry import RunTelemetry, TelemetrySummary
from repro.sim.engine import SimulationEngine
from repro.sim.failures import CrashWithoutRecovery, NoFailures
from repro.sim.group import GroupMembership, PartialViews
from repro.sim.network import LossyNetwork, PartitionedNetwork
from repro.sim.rng import RngRegistry

__all__ = ["RunResult", "run_once", "incompleteness_samples"]

PROTOCOLS = ("hierarchical_gossip", "flood", "centralized",
             "leader_election", "flat_gossip")

#: Extra rounds past the protocol's nominal budget before the engine
#: gives up (protects against scheduling stragglers, not protocol time).
_HORIZON_SLACK = 50


@dataclass
class RunResult:
    """Everything measured in one finished run."""

    config: RunConfig
    report: CompletenessReport
    rounds: int
    messages_sent: int
    messages_dropped: int
    bytes_sent: int
    crashes: int
    true_value: float
    #: Mean absolute error of finalized estimates, averaged over exactly
    #: the member set behind the survivor-relative completeness metric
    #: (``report.per_member``): members that were still alive at the end
    #: of the run *and* finalized a result.  Members that terminated with
    #: an estimate but crashed later are excluded (they are no longer
    #: part of the group, matching ``CompletenessReport``'s survivor
    #: rule), as are survivors that never finished.  ``nan`` when no
    #: member qualifies.
    mean_estimate_error: float
    #: Crash recoveries observed during the run (0 without a recovering
    #: failure model or churn campaign).
    recoveries: int = 0
    #: Sends refused outright by the per-round bandwidth cap (they never
    #: reach the wire and are not in ``messages_sent``); nonzero only
    #: under a ``max_sends_per_round`` limit or a throttling campaign.
    messages_rejected: int = 0
    #: Mean self-assessed coverage fraction over the same member set as
    #: ``mean_estimate_error`` (graceful-degradation signal: < 1.0 means
    #: members knowingly finished with partial aggregates).  Falls back
    #: to ``result.covers() / N`` for protocols that do not self-assess;
    #: ``nan`` when no member qualifies.
    mean_coverage: float = float("nan")
    #: Compact telemetry summary (phase / bump-up / timeout counters),
    #: populated when the run was telemetered — either
    #: ``config.collect_telemetry`` or an explicit ``RunTelemetry`` passed
    #: to :func:`run_once`.  Picklable, so it survives the
    #: ``ParallelRunner`` worker boundary.
    telemetry: TelemetrySummary | None = None
    #: Adversary accounting (injection counts, detection rate) when the
    #: run's campaign planted Byzantine traffic; ``None`` otherwise.
    adversarial: AdversarialSummary | None = None

    @property
    def incompleteness(self) -> float:
        return self.report.mean_incompleteness

    @property
    def completeness(self) -> float:
        return self.report.mean_completeness

    @property
    def incompleteness_initial(self) -> float:
        """Incompleteness relative to all N initial votes (crashed
        members' undelivered votes count against it)."""
        return 1.0 - self.report.mean_completeness_initial


def _make_votes(config: RunConfig, rngs: RngRegistry) -> dict[int, float]:
    return draw_votes(rngs, config.n, config.vote_low, config.vote_high)


def _make_network(config: RunConfig) -> LossyNetwork | PartitionedNetwork:
    common = dict(
        max_message_size=config.max_message_size,
        max_sends_per_round=config.max_sends_per_round,
    )
    if config.partl is not None:
        half = config.n // 2
        return PartitionedNetwork(
            partition_of=lambda node: 0 if node < half else 1,
            partition_of_block=lambda nodes: nodes >= half,
            partl=config.partl,
            ucastl=config.ucastl,
            **common,
        )
    return LossyNetwork(ucastl=config.ucastl, **common)


def _make_failures(config: RunConfig) -> NoFailures | CrashWithoutRecovery:
    if config.pf <= 0.0:
        return NoFailures()
    return CrashWithoutRecovery(pf=config.pf)


def _hierarchy_size(config: RunConfig) -> int:
    """The N the hierarchy is built for (possibly just an estimate)."""
    return config.n_estimate if config.n_estimate is not None else config.n


def _build_processes(
    config: RunConfig, votes: dict[int, float], rngs: RngRegistry,
    phase_sink: PhaseSink | None = None,
) -> tuple[list[AggregationProcess], int]:
    """Instantiate the configured protocol; returns (processes, max_rounds)."""
    function = get_aggregate(config.aggregate)
    slack = _HORIZON_SLACK
    if config.protocol in ("hierarchical_gossip", "leader_election"):
        placement = FairHash(salt=config.hash_salt)
        if list(votes) == list(range(config.n)):
            # Memoized across runs: the runner's membership is the
            # dense ``range(n)`` and FairHash placement is captured by
            # its salt, so repeated seeded runs of a sweep point share
            # one assignment instead of re-hashing N members per run.
            assignment = shared_dense_assignment(
                _hierarchy_size(config), config.k, config.n, placement
            )
        else:
            # A caller's own member ids (``aggregate_once``).
            assignment = GridAssignment(
                GridBoxHierarchy(_hierarchy_size(config), config.k),
                votes, placement,
            )
        hierarchy = assignment.hierarchy
    if config.protocol == "hierarchical_gossip":
        params = GossipParams.from_config(config)
        view_of = None
        if config.view_size is not None:
            membership = GroupMembership(tuple(votes))
            views = PartialViews(membership, config.view_size, rngs)
            view_of = views.view_of
        start_round_of = None
        if config.start_spread > 0:
            start_rng = rngs.stream("start-wave")
            starts = {
                member: int(start_rng.integers(0, config.start_spread + 1))
                for member in votes
            }
            start_round_of = starts.__getitem__
        processes = build_hierarchical_gossip_group(
            votes, function, assignment, params,
            view_of=view_of, start_round_of=start_round_of,
            phase_sink=phase_sink,
        )
        budget = params.round_budget(
            hierarchy.group_size, hierarchy.num_phases, config.start_spread
        )
        return processes, budget + slack
    if config.protocol == "flood":
        processes = build_flood_group(votes, function, fanout=config.fanout_m)
        return processes, math.ceil(config.n / config.fanout_m) + slack
    if config.protocol == "centralized":
        processes = build_centralized_group(
            votes, function, committee_size=config.committee_size
        )
        horizon = 2 * processes[0].collect_until + config.n + slack
        return processes, horizon
    if config.protocol == "leader_election":
        processes = build_leader_election_group(
            votes, function, assignment,
            committee_size=config.committee_size,
        )
        rpp = processes[0].rounds_per_phase
        return processes, 2 * rpp * hierarchy.num_phases + slack
    if config.protocol == "flat_gossip":
        # The same round budget as the hierarchy it is compared against.
        size = _hierarchy_size(config)
        budget = GossipParams.from_config(config).round_budget(
            size, GridBoxHierarchy(size, config.k).num_phases
        )
        processes = build_flat_gossip_group(
            votes, function, total_rounds=budget, fanout=config.fanout_m,
        )
        return processes, budget + slack
    raise ValueError(
        f"unknown protocol {config.protocol!r}; known: {PROTOCOLS}"
    )


def _box_groups(
    config: RunConfig, votes: dict[int, float], processes
) -> list[tuple[int, ...]]:
    """Member ids partitioned by grid box, for rack-correlated faults.

    Uses the protocol's real :class:`GridAssignment` when the built
    processes carry one; protocols without a hierarchy (flood,
    centralized) fall back to contiguous chunks of ``k`` ids — the same
    *shape* of correlation, without pretending a hierarchy exists.
    """
    assignment = getattr(processes[0], "assignment", None)
    if isinstance(assignment, GridAssignment):
        boxes: dict[int, list[int]] = {}
        for member in assignment.member_ids:
            boxes.setdefault(assignment.box_of(member), []).append(member)
        return [tuple(boxes[box]) for box in sorted(boxes)]
    ids = sorted(votes)
    k = max(1, config.k)
    return [tuple(ids[i:i + k]) for i in range(0, len(ids), k)]


def _array_engine_reason(
    config: RunConfig, telemetry: RunTelemetry | None, processes,
) -> str | None:
    """Why this run cannot use the array-stepped engine (None = it can).

    The array engine is bit-identical to the object engine on supported
    configurations (the cross-engine golden suite pins it), so "auto"
    selection never changes results — only speed.  The only telemetry
    that matters here is a :class:`~repro.sim.trace.Tracer`: its stored
    per-message events exist only under per-message dispatch.  Compact
    telemetry, round metrics and phase sinks run on either engine.
    """
    if config.protocol != "hierarchical_gossip":
        return f"protocol {config.protocol!r} has no array stepper"
    if telemetry is not None and telemetry.tracer is not None:
        return "a tracer that stores engine events needs per-message dispatch"
    from repro.core.array_stepper import unsupported_reason

    return unsupported_reason(processes[0].params)


def _make_engine(
    config: RunConfig,
    telemetry: RunTelemetry | None,
    processes,
    network,
    failure_model,
    rngs: RngRegistry,
    max_rounds: int,
) -> SimulationEngine:
    """Build the configured round engine (see ``RunConfig.engine``)."""
    choice = config.engine
    if choice not in ("auto", "object", "array"):
        raise ValueError(
            f"unknown engine {choice!r}; known: auto, object, array"
        )
    reason = (
        _array_engine_reason(config, telemetry, processes)
        if choice != "object"
        else "engine='object' requested"
    )
    if choice == "array" and reason is not None:
        raise ValueError(f"engine='array' is unsupported here: {reason}")
    common = dict(
        network=network,
        failure_model=failure_model,
        rngs=rngs,
        max_rounds=max_rounds,
        metrics=telemetry.metrics if telemetry is not None else None,
    )
    if reason is None:
        from repro.core.array_stepper import HierarchicalArrayStepper
        from repro.sim.array_engine import ArraySteppedEngine

        return ArraySteppedEngine(
            stepper=HierarchicalArrayStepper(), **common
        )
    return SimulationEngine(
        tracer=telemetry.tracer if telemetry is not None else None,
        **common,
    )


def _campaign_horizon(
    config: RunConfig, processes, max_rounds: int
) -> int:
    """The nominal protocol window campaign timeline fractions map onto
    (for the hierarchy: its phases alone, without start spread or
    deadline extensions)."""
    if config.protocol == "hierarchical_gossip":
        first = processes[0]
        return first.rounds_per_phase * first.num_phases
    return max(1, max_rounds - _HORIZON_SLACK)


def run_once(
    config: RunConfig,
    telemetry: RunTelemetry | None = None,
    registry=None,
) -> RunResult:
    """Build the configured world, run it to completion, measure it.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.RunTelemetry`
    to the run: the engine gets its tracer/metrics, hierarchical-gossip
    processes its phase sink, and :meth:`RunTelemetry.finish` is called
    with the finished engine and the run's identity so the trace can be
    exported self-contained.  When ``None`` but
    ``config.collect_telemetry`` is set, a compact telemetry (phase
    counters only, no tracer) is attached instead — that path works
    inside ``ParallelRunner`` workers, with the summary pickled back on
    ``RunResult.telemetry``.  Either way the aggregation results are
    byte-identical to an untelemetered run (golden-tested).

    ``registry`` feeds a :class:`~repro.obs.metrics.MetricsRegistry`
    live (phase events) and at the end of the run (totals) without
    touching the per-message hooks: passed alone it wraps the run in
    :meth:`RunTelemetry.metrics_only`, so engine auto-selection and the
    returned result are untouched — the registry is pure observation.
    """
    if registry is not None:
        if telemetry is None:
            telemetry = RunTelemetry.metrics_only(registry)
        else:
            telemetry.registry = registry
    if telemetry is None and config.collect_telemetry:
        telemetry = RunTelemetry.compact()
    rngs = RngRegistry(seed=config.seed)
    return _run_votes(config, rngs, _make_votes(config, rngs), telemetry)


def _run_votes(
    config: RunConfig,
    rngs: RngRegistry,
    votes: dict[int, float],
    telemetry: RunTelemetry | None = None,
) -> RunResult:
    """:func:`run_once` from the point the votes exist (``aggregate_once``
    brings its own): install them as the sanitizer's ground truth, run."""
    from repro import sanitize

    function = get_aggregate(config.aggregate)
    # Adversarial campaigns are meaningless without the detection oracle,
    # so the sanitizer is force-enabled for them (and restored after).
    force_sanitize = False
    if config.campaign is not None and not sanitize.ACTIVE:
        from repro.chaos import get_campaign

        force_sanitize = get_campaign(config.campaign).adversarial
    if force_sanitize:
        sanitize.enable()
    try:
        if sanitize.ACTIVE:
            # Ground truth for mass-conservation / foreign-member checks
            # at every phase compose (see repro.sanitize).  Draws nothing
            # and mutates nothing, so results are identical with or
            # without it.
            sanitize.begin_run(votes, function)
        try:
            return _run_built(config, rngs, votes, function, telemetry)
        finally:
            if sanitize.ACTIVE:
                sanitize.end_run()
    finally:
        if force_sanitize:
            sanitize.disable()


@contextmanager
def _config_errors():
    """A ``ValueError`` while the world is being built is the config's
    fault: re-raise it as :class:`ConfigError` (still a ``ValueError``)."""
    try:
        yield
    except ValueError as error:
        raise ConfigError(str(error)) from error


def _run_built(
    config: RunConfig,
    rngs: RngRegistry,
    votes: dict[int, float],
    function,
    telemetry: RunTelemetry | None = None,
) -> RunResult:
    true_value = function.finalize(function.over(votes))
    with (telemetry.profile("build") if telemetry is not None
          else nullcontext()), _config_errors():
        processes, max_rounds = _build_processes(
            config, votes, rngs,
            phase_sink=(telemetry.phase_sink() if telemetry is not None
                        else None),
        )
        compiled = None
        if config.campaign is not None:
            from repro.chaos import get_campaign

            compiled = get_campaign(config.campaign).compile(
                horizon=_campaign_horizon(config, processes, max_rounds),
                base_loss=config.ucastl,
                base_pf=config.pf,
                box_groups=_box_groups(config, votes, processes),
                max_message_size=config.max_message_size,
                max_sends_per_round=config.max_sends_per_round,
            )
            network = compiled.network
            failure_model = compiled.failure_model
        else:
            network = _make_network(config)
            failure_model = _make_failures(config)
        engine = _make_engine(
            config, telemetry, processes, network, failure_model,
            rngs, max_rounds,
        )
        engine.add_processes(processes)
        if compiled is not None:
            compiled.install(engine)
    planner = compiled.planner if compiled is not None else None
    if planner is not None:
        # Arm the detection oracle: repro.sanitize screens every
        # contribution at the protocols' admission paths and scores
        # catches against the planner's planted ground truth.
        from repro import sanitize

        sanitize.set_adversary(planner)
    try:
        with telemetry.profile("simulate") if telemetry is not None \
                else nullcontext():
            engine.run()
    finally:
        if planner is not None:
            from repro import sanitize

            sanitize.clear_adversary()
    with telemetry.profile("measure") if telemetry is not None else nullcontext():
        report = measure_completeness(processes, group_size=config.n)
        mean_error, mean_coverage, __ = measure_estimates(
            processes, report, true_value
        )
    summary: TelemetrySummary | None = None
    if telemetry is not None:
        telemetry.finish(
            config=config,
            engine=engine,
            assignment=getattr(processes[0], "assignment", None),
        )
        if telemetry.attach_summary:
            summary = telemetry.summary()
    result = RunResult(
        config=config,
        report=report,
        rounds=engine.stats.rounds_executed,
        messages_sent=network.stats.sent,
        messages_dropped=network.stats.dropped,
        bytes_sent=network.stats.bytes_sent,
        crashes=engine.stats.crashes,
        true_value=true_value,
        mean_estimate_error=mean_error,
        recoveries=engine.stats.recoveries,
        messages_rejected=network.stats.rejected_bandwidth,
        mean_coverage=mean_coverage,
        telemetry=summary,
        adversarial=planner.summary if planner is not None else None,
    )
    if telemetry is not None:
        # Recorded after construction so the exported trace's ``result``
        # record and the returned RunResult can never disagree.
        telemetry.finish(result_record=run_result_record(result))
    return result


def incompleteness_samples(
    config: RunConfig, runs: int, jobs: int | str | None = None,
) -> list[float]:
    """Mean incompleteness of ``runs`` independent seeded runs.

    ``jobs`` fans the seeded runs out across worker processes (see
    :mod:`repro.experiments.parallel`); results are bit-identical to the
    serial loop for any job count.
    """
    from repro.experiments.parallel import run_many

    configs = [config.with_seed(config.seed + offset)
               for offset in range(runs)]
    return [result.incompleteness for result in run_many(configs, jobs=jobs)]
