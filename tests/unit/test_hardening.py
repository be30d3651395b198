"""Unit tests for the protocol hardening knobs (adaptive deadlines,
final-phase retransmission, graceful degradation) and the failure-model
edge cases the chaos campaigns exercise."""

import math

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.protocol import measure_completeness
from repro.experiments.params import with_params
from repro.experiments.runner import _build_processes, run_once
from repro.sim.engine import SimulationEngine
from repro.sim.failures import ScheduledFailures
from repro.sim.network import LossyNetwork
from repro.sim.rng import RngRegistry


def _world(n=16, k=4, **params):
    votes = {i: float(i) for i in range(n)}
    hierarchy = GridBoxHierarchy(n, k)
    assignment = GridAssignment(hierarchy, votes, FairHash(salt=0))
    return build_hierarchical_gossip_group(
        votes, get_aggregate("average"), assignment,
        GossipParams(**params),
    ).materialize()


def _run(processes, ucastl=0.0, failure_model=None, max_rounds=200):
    engine = SimulationEngine(
        network=LossyNetwork(ucastl=ucastl, max_message_size=1 << 20),
        failure_model=failure_model,
        rngs=RngRegistry(0),
        max_rounds=max_rounds,
    )
    engine.add_processes(processes)
    engine.run()
    return engine


class TestParamsValidation:
    def test_fanout_must_be_positive(self):
        with pytest.raises(ValueError, match="fanout"):
            GossipParams(fanout_m=0)

    def test_final_retransmit_non_negative(self):
        with pytest.raises(ValueError, match="final_retransmit"):
            GossipParams(final_retransmit=-1)

    def test_fanout_exceeding_group_rejected(self):
        with pytest.raises(ValueError, match="exceeds the group size"):
            _world(n=4, k=4, fanout_m=5)

    def test_singleton_group_allows_any_fanout(self):
        votes = {0: 1.0}
        hierarchy = GridBoxHierarchy(1, 4)
        assignment = GridAssignment(hierarchy, votes, FairHash(salt=0))
        processes = build_hierarchical_gossip_group(
            votes, get_aggregate("average"), assignment,
            GossipParams(fanout_m=8),
        )
        assert len(processes) == 1


class TestExtensionBudget:
    def test_zero_when_disabled(self):
        assert GossipParams(adaptive_deadlines=False).extension_budget(6) == 0

    def test_ceil_of_factor_times_phase(self):
        params = GossipParams(adaptive_deadlines=True)
        assert params.extension_budget(5) == math.ceil(2.5)
        assert params.extension_budget(6) == 3


class TestDefaultsAreThePaperProtocol:
    def test_hardening_off_is_bit_identical(self):
        baseline = run_once(with_params(n=64, seed=5))
        explicit = run_once(with_params(
            n=64, seed=5, adaptive_deadlines=False, final_retransmit=0,
        ))
        assert baseline.completeness == explicit.completeness
        assert baseline.messages_sent == explicit.messages_sent
        assert baseline.rounds == explicit.rounds


class TestAdaptiveDeadlines:
    def test_extends_under_heavy_loss(self):
        heavy = run_once(with_params(
            n=64, seed=2, ucastl=0.55, pf=0.0, adaptive_deadlines=True,
        ))
        baseline_heavy = run_once(with_params(
            n=64, seed=2, ucastl=0.55, pf=0.0,
        ))
        # Heavy loss: the run borrows extra rounds...
        assert heavy.rounds > baseline_heavy.rounds
        # ...and completeness does not get worse for it.
        assert heavy.completeness >= baseline_heavy.completeness

    def test_extension_is_bounded(self):
        config = with_params(
            n=64, seed=2, ucastl=0.55, pf=0.0, adaptive_deadlines=True,
        )
        result = run_once(config)
        # The engine horizon already includes the worst-case budget; the
        # run must finish inside it, not hit the cutoff.
        __, max_rounds = _build_processes(
            config, {i: 1.0 for i in range(64)}, RngRegistry(0)
        )
        assert result.rounds < max_rounds


class TestFinalRetransmit:
    def test_inactive_representatives_retransmit(self):
        # With representative_fraction < 1 most members fall silent in
        # the final phase; the retransmission budget lets them push their
        # state a few more times.
        quiet = run_once(with_params(
            n=64, seed=4, ucastl=0.4, representative_fraction=0.25,
        ))
        retrans = run_once(with_params(
            n=64, seed=4, ucastl=0.4, representative_fraction=0.25,
            final_retransmit=3,
        ))
        assert retrans.messages_sent > quiet.messages_sent
        assert retrans.completeness >= quiet.completeness


class TestGracefulDegradation:
    def test_full_run_reports_full_coverage(self):
        # Generous round budget: every member converges at zero loss.
        processes = _world(n=16, k=4, rounds_factor_c=3.0)
        _run(processes)
        for process in processes:
            assert process.coverage_fraction == 1.0
            assert process.partial_result is False

    def test_self_assessment_matches_result(self):
        # Tight budget (C=1, fanout 2): some members lock in partial
        # aggregates even without loss — each must report exactly what
        # its own result covers.
        processes = _world(n=16, k=4)
        _run(processes)
        for process in processes:
            assert process.coverage_fraction == pytest.approx(
                process.result.covers() / 16
            )

    def test_unfinished_process_reports_none(self):
        processes = _world(n=16, k=4)
        assert processes[0].coverage_fraction is None
        assert processes[0].partial_result is None

    def test_partial_coverage_reported_after_crashes(self):
        processes = _world(n=16, k=4)
        # Crash a quarter of the group in round 1, before their box
        # aggregates can escape: survivors must self-report < 1 coverage.
        _run(processes, failure_model=ScheduledFailures(
            crash_at={1: [0, 1, 2, 3]}, member_ids=range(16),
        ))
        finished = [p for p in processes if p.alive and p.result is not None]
        assert finished
        for process in finished:
            assert process.coverage_fraction is not None
            assert process.coverage_fraction <= 1.0
        partial = [p for p in finished if p.partial_result]
        assert partial, "crashing 4/16 members must leave partial results"


class TestFailureEdgeCases:
    def test_all_members_crashed_mid_phase(self):
        processes = _world(n=8, k=4)
        engine = _run(processes, failure_model=ScheduledFailures(
            crash_at={2: list(range(8))}, member_ids=range(8),
        ), max_rounds=50)
        assert engine.stats.crashes == 8
        report = measure_completeness(processes, group_size=8)
        assert report.survivors == 0
        assert report.mean_completeness == 0.0

    def test_rejoin_after_compose_does_not_double_count(self):
        # Crash one member, bring it back after its subtree has long
        # been composed; any member reaching completeness 1.0 must hold
        # the exact true average (double-counting would skew the sum).
        processes = _world(n=16, k=4)
        _run(processes, failure_model=ScheduledFailures(
            crash_at={2: [5]}, recover_at={10: [5]}, member_ids=range(16),
        ), max_rounds=200)
        true_average = sum(float(i) for i in range(16)) / 16
        finished = [p for p in processes if p.result is not None]
        assert finished
        for process in finished:
            covers = process.result.covers()
            assert covers <= 16
            if covers == 16:
                value = process.function.finalize(process.result)
                assert value == pytest.approx(true_average)

    def test_engine_stops_when_recovery_never_comes(self):
        # may_recover=True keeps a crashed-but-unterminated group "alive"
        # in the engine's eyes; a recovery scheduled past the horizon
        # must not hang the run.
        processes = _world(n=8, k=4)
        engine = _run(processes, failure_model=ScheduledFailures(
            crash_at={1: [0]}, recover_at={10_000: [0]},
            member_ids=range(8),
        ), max_rounds=40)
        assert engine.failure_model.may_recover
        assert engine.stats.rounds_executed <= 40
