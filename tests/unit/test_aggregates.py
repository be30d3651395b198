"""Unit tests for the composable aggregate algebra."""

import math

import pytest

from repro.core.aggregates import (
    AGGREGATE_NAMES,
    AGGREGATE_REGISTRY,
    AllAggregate,
    AnyAggregate,
    AverageAggregate,
    BoundsAggregate,
    CountAggregate,
    DoubleCountError,
    HistogramAggregate,
    MaxAggregate,
    MeanVarianceAggregate,
    MinAggregate,
    SumAggregate,
    get_aggregate,
)


class TestLiftAndFinalize:
    def test_sum_single_vote(self):
        f = SumAggregate()
        state = f.lift(7, 3.5)
        assert f.finalize(state) == 3.5
        assert state.members == frozenset({7})

    def test_count_ignores_vote_value(self):
        f = CountAggregate()
        assert f.finalize(f.lift(1, 123.0)) == 1.0

    def test_average_of_one(self):
        f = AverageAggregate()
        assert f.finalize(f.lift(0, 42.0)) == 42.0

    def test_min_max_single(self):
        assert MinAggregate().finalize(MinAggregate().lift(0, -3.0)) == -3.0
        assert MaxAggregate().finalize(MaxAggregate().lift(0, -3.0)) == -3.0

    def test_bounds_single_width_zero(self):
        f = BoundsAggregate()
        state = f.lift(0, 5.0)
        assert f.finalize(state) == 0.0
        assert BoundsAggregate.bounds(state) == (5.0, 5.0)

    def test_mean_variance_single(self):
        f = MeanVarianceAggregate()
        state = f.lift(0, 9.0)
        assert f.finalize(state) == 0.0
        assert MeanVarianceAggregate.mean(state) == 9.0


class TestMerge:
    def test_average_merge_matches_direct(self):
        f = AverageAggregate()
        votes = {i: float(i * i) for i in range(10)}
        state = f.over(votes)
        expected = sum(votes.values()) / len(votes)
        assert f.finalize(state) == pytest.approx(expected)
        assert state.members == frozenset(votes)

    def test_merge_rejects_overlap(self):
        f = SumAggregate()
        a = f.lift(1, 2.0)
        b = f.lift(1, 2.0)
        with pytest.raises(DoubleCountError):
            f.merge(a, b)

    def test_merge_overlap_message_names_members(self):
        f = SumAggregate()
        a = f.merge(f.lift(1, 1.0), f.lift(2, 1.0))
        b = f.lift(2, 1.0)
        with pytest.raises(DoubleCountError, match="2"):
            f.merge(a, b)

    def test_merge_all_requires_states(self):
        with pytest.raises(ValueError):
            SumAggregate().merge_all([])

    def test_merge_all_single_passthrough(self):
        f = SumAggregate()
        state = f.lift(0, 4.0)
        assert f.merge_all([state]) is state

    def test_min_max_merge(self):
        votes = {0: 5.0, 1: -2.0, 2: 9.0}
        assert MinAggregate().finalize(MinAggregate().over(votes)) == -2.0
        assert MaxAggregate().finalize(MaxAggregate().over(votes)) == 9.0

    def test_mean_variance_matches_population_variance(self):
        f = MeanVarianceAggregate()
        values = [1.0, 4.0, 9.0, 16.0, 25.0]
        votes = dict(enumerate(values))
        state = f.over(votes)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert f.finalize(state) == pytest.approx(variance)
        assert MeanVarianceAggregate.mean(state) == pytest.approx(mean)

    def test_mean_variance_merge_order_independent(self):
        f = MeanVarianceAggregate()
        votes = {i: float(i % 13) * 1e6 + 1e-3 for i in range(50)}
        states = [f.lift(m, v) for m, v in votes.items()]
        forward = states[0]
        for state in states[1:]:
            forward = f.merge(forward, state)
        backward = states[-1]
        for state in reversed(states[:-1]):
            backward = f.merge(backward, state)
        assert f.finalize(forward) == pytest.approx(
            f.finalize(backward), rel=1e-9
        )


class TestBooleanAggregates:
    def test_any(self):
        f = AnyAggregate()
        assert f.finalize(f.over({0: 0.0, 1: 0.0})) == 0.0
        assert f.finalize(f.over({0: 0.0, 1: 1.0})) == 1.0

    def test_all(self):
        f = AllAggregate()
        assert f.finalize(f.over({0: 1.0, 1: 1.0})) == 1.0
        assert f.finalize(f.over({0: 1.0, 1: 0.0})) == 0.0


class TestHistogram:
    def test_counts_and_mode(self):
        f = HistogramAggregate(low=0.0, high=10.0, bins=5)
        votes = {0: 1.0, 1: 1.5, 2: 9.0, 3: 3.0}
        state = f.over(votes)
        assert HistogramAggregate.counts(state) == (2, 1, 0, 0, 1)
        assert f.finalize(state) == 0.0  # bin 0 is the fullest

    def test_out_of_range_clamps(self):
        f = HistogramAggregate(low=0.0, high=1.0, bins=2)
        state = f.over({0: -5.0, 1: 99.0})
        assert HistogramAggregate.counts(state) == (1, 1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HistogramAggregate(low=0.0, high=1.0, bins=0)
        with pytest.raises(ValueError):
            HistogramAggregate(low=1.0, high=1.0)


class TestWireSize:
    def test_average_payload_is_two_scalars(self):
        state = AverageAggregate().lift(0, 1.0)
        assert state.wire_size() == 16

    def test_sum_payload_is_one_scalar(self):
        state = SumAggregate().lift(0, 1.0)
        assert state.wire_size() == 8

    def test_wire_size_ignores_member_bookkeeping(self):
        f = AverageAggregate()
        small = f.lift(0, 1.0)
        big = f.over({i: 1.0 for i in range(100)})
        assert small.wire_size() == big.wire_size()


class TestRegistry:
    def test_all_registered_names_instantiate(self):
        for name in AGGREGATE_REGISTRY:
            function = get_aggregate(name)
            assert function.name == name

    def test_histogram_via_registry(self):
        f = get_aggregate("histogram", low=0.0, high=1.0, bins=4)
        assert isinstance(f, HistogramAggregate)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="average"):
            get_aggregate("median")

    def test_unknown_name_offers_only_names_built_by_name(self):
        # ``histogram`` needs its range: offering it sent users to a
        # "cannot be built by name" error.
        with pytest.raises(KeyError) as caught:
            get_aggregate("median")
        offered = caught.value.args[0].split("known: ")[1].split(", ")
        assert offered == list(AGGREGATE_NAMES)
        assert "histogram" not in offered
        for name in offered:
            assert get_aggregate(name).name == name


class TestComposability:
    """The paper's defining property: f(W1 u W2) = g(f(W1), f(W2))."""

    @pytest.mark.parametrize("name", sorted(AGGREGATE_REGISTRY))
    def test_split_merge_equals_direct(self, name):
        f = get_aggregate(name)
        votes = {i: math.sin(i) * 10 for i in range(20)}
        left = {m: v for m, v in votes.items() if m < 11}
        right = {m: v for m, v in votes.items() if m >= 11}
        combined = f.merge(f.over(left), f.over(right))
        direct = f.over(votes)
        assert f.finalize(combined) == pytest.approx(f.finalize(direct))
        assert combined.members == direct.members
