"""Unit tests for the AggregationProcess base and completeness reporting."""

import pytest

from repro.core.aggregates import AverageAggregate
from repro.core.protocol import (
    AggregationProcess,
    CompletenessReport,
    measure_completeness,
    measure_estimates,
)

F = AverageAggregate()


def _process(node_id, vote=1.0, result_members=None, alive=True):
    process = AggregationProcess(node_id, vote, F)
    process.alive = alive
    if result_members is not None:
        process.result = F.over({m: 1.0 for m in result_members})
    return process


class TestAggregationProcess:
    def test_own_state(self):
        process = _process(3, vote=2.5)
        state = process.own_state()
        assert state.members == frozenset({3})
        assert F.finalize(state) == 2.5

    def test_completeness_none_before_result(self):
        assert _process(0).completeness(10) is None

    def test_completeness_fraction(self):
        process = _process(0, result_members=[0, 1, 2, 3])
        assert process.completeness(8) == 0.5


class TestMeasureCompleteness:
    def test_survivor_relative_headline(self):
        processes = [
            _process(0, result_members=[0, 1]),       # both survivors
            _process(1, result_members=[0, 1, 2]),    # includes crashed 2
            _process(2, alive=False),                  # crashed
        ]
        report = measure_completeness(processes, group_size=3)
        assert report.survivors == 2
        assert report.crashed == 1
        # member 0 covers {0,1} of survivors {0,1} -> 1.0
        assert report.per_member[0] == 1.0
        # member 1 covers {0,1} of survivors (2 is dead) -> 1.0
        assert report.per_member[1] == 1.0
        assert report.mean_completeness == 1.0
        # initial-relative counts the crashed member's vote
        assert report.per_member_initial[1] == pytest.approx(1.0)
        assert report.per_member_initial[0] == pytest.approx(2 / 3)

    def test_unfinished_members_counted(self):
        processes = [_process(0), _process(1, result_members=[1])]
        report = measure_completeness(processes, group_size=2)
        assert report.unfinished == 1
        assert set(report.per_member) == {1}

    def test_all_crashed_is_zero_completeness(self):
        processes = [_process(0, alive=False), _process(1, alive=False)]
        report = measure_completeness(processes, group_size=2)
        assert report.mean_completeness == 0.0
        assert report.mean_incompleteness == 1.0
        assert report.min_completeness == 0.0

    def test_mean_incompleteness_complement(self):
        processes = [_process(0, result_members=[0])]
        report = measure_completeness(processes, group_size=1)
        assert report.mean_completeness == 1.0
        assert report.mean_incompleteness == 0.0

    def test_initial_metric_differs_under_crashes(self):
        processes = [
            _process(0, result_members=[0]),
            _process(1, alive=False),
        ]
        report = measure_completeness(processes, group_size=2)
        assert report.mean_completeness == 1.0          # all survivors in
        assert report.mean_completeness_initial == 0.5  # dead vote missing

    def test_interval_counting_equals_the_per_member_set_intersection(self):
        """The prefix-sum count per coverage interval is the old
        ``len(result.members & survivors)``, bit for bit — including
        coverage past the last survivor (crashed or foreign slots) and
        masks shredded into many intervals."""
        import random

        rng = random.Random(7)
        size = 60
        processes = []
        for node_id in range(size):
            covered = [m for m in range(size + 5) if rng.random() < 0.7]
            processes.append(_process(
                node_id, result_members=covered or [node_id],
                alive=rng.random() < 0.8,
            ))
        processes[3].result = None
        report = measure_completeness(processes, group_size=size)
        survivors = {p.node_id for p in processes if p.alive}
        assert report.survivors == len(survivors)
        for process in processes:
            if not process.alive or process.result is None:
                assert process.node_id not in report.per_member
                continue
            expected = len(set(process.result.members) & survivors)
            assert report.per_member[process.node_id] == (
                expected / len(survivors)
            )


class TestMeasureEstimates:
    def test_means_cover_exactly_the_measured_member_set(self):
        processes = [
            _process(0, result_members=[0, 1]),
            _process(1, result_members=[0, 1, 2, 3]),
            _process(2, result_members=[2], alive=False),  # crashed
            _process(3),                                    # unfinished
        ]
        processes[0].coverage_fraction = 0.75  # self-assessed
        report = measure_completeness(processes, group_size=4)
        error, coverage, estimates = measure_estimates(
            processes, report, true_value=3.0
        )
        assert estimates == {0: 1.0, 1: 1.0}
        assert error == 2.0
        # member 1 did not self-assess: falls back to covers() / N = 1.0
        assert coverage == pytest.approx((0.75 + 1.0) / 2)

    def test_nobody_measured_is_nan(self):
        import math

        processes = [_process(0, alive=False), _process(1)]
        report = measure_completeness(processes, group_size=2)
        error, coverage, estimates = measure_estimates(
            processes, report, true_value=1.0
        )
        assert math.isnan(error) and math.isnan(coverage)
        assert estimates == {}
