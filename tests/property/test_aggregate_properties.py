"""Property-based tests for the composable aggregate algebra.

These pin the invariants the protocol's correctness rests on: merging is
associative and commutative on disjoint vote sets, composability holds for
arbitrary partitions of a vote map, the double-counting guard always
fires on overlap, and a fixed-width aggregate's column fold is its
``merge_all`` bit for bit.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AGGREGATE_NAMES,
    AGGREGATE_REGISTRY,
    DoubleCountError,
    StateTable,
    get_aggregate,
)

# Finite, well-conditioned votes (the algebra itself is exact; we avoid
# float-overflow noise, not hide real bugs).
votes_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=10_000),
    values=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=40,
)

aggregate_names = st.sampled_from(sorted(AGGREGATE_REGISTRY))


@given(name=aggregate_names, votes=votes_strategy, data=st.data())
@settings(max_examples=120)
def test_composability_under_arbitrary_partition(name, votes, data):
    """f(W1 u W2) = g(f(W1), f(W2)) for every 2-partition of the votes."""
    f = get_aggregate(name)
    members = sorted(votes)
    split = data.draw(st.integers(min_value=0, max_value=len(members)))
    left = {m: votes[m] for m in members[:split]}
    right = {m: votes[m] for m in members[split:]}
    direct = f.over(votes)
    if not left or not right:
        return
    combined = f.merge(f.over(left), f.over(right))
    assert combined.members == direct.members
    assert f.finalize(combined) == pytest.approx(
        f.finalize(direct), rel=1e-9, abs=1e-9
    )


@given(name=aggregate_names, votes=votes_strategy)
@settings(max_examples=80)
def test_merge_commutative(name, votes):
    f = get_aggregate(name)
    members = sorted(votes)
    half = len(members) // 2
    if half == 0 or half == len(members):
        return
    a = f.over({m: votes[m] for m in members[:half]})
    b = f.over({m: votes[m] for m in members[half:]})
    ab = f.merge(a, b)
    ba = f.merge(b, a)
    assert ab.members == ba.members
    assert f.finalize(ab) == pytest.approx(f.finalize(ba), rel=1e-9, abs=1e-9)


@given(name=aggregate_names, votes=votes_strategy)
@settings(max_examples=80)
def test_merge_associative(name, votes):
    f = get_aggregate(name)
    members = sorted(votes)
    if len(members) < 3:
        return
    third = max(1, len(members) // 3)
    parts = [
        {m: votes[m] for m in members[:third]},
        {m: votes[m] for m in members[third : 2 * third]},
        {m: votes[m] for m in members[2 * third :]},
    ]
    states = [f.over(p) for p in parts if p]
    if len(states) < 3:
        return
    left_first = f.merge(f.merge(states[0], states[1]), states[2])
    right_first = f.merge(states[0], f.merge(states[1], states[2]))
    assert left_first.members == right_first.members
    assert f.finalize(left_first) == pytest.approx(
        f.finalize(right_first), rel=1e-9, abs=1e-9
    )


@given(name=aggregate_names, votes=votes_strategy, member=st.integers(0, 10_000))
@settings(max_examples=60)
def test_double_count_guard_always_fires(name, votes, member):
    f = get_aggregate(name)
    votes = dict(votes)
    votes[member] = 1.0
    whole = f.over(votes)
    single = f.lift(member, 1.0)
    with pytest.raises(DoubleCountError):
        f.merge(whole, single)


@given(votes=votes_strategy)
@settings(max_examples=60)
def test_average_bounded_by_min_max(votes):
    avg = get_aggregate("average")
    low = get_aggregate("min")
    high = get_aggregate("max")
    value = avg.finalize(avg.over(votes))
    assert low.finalize(low.over(votes)) <= value + 1e-9
    assert value <= high.finalize(high.over(votes)) + 1e-9


@given(votes=votes_strategy)
@settings(max_examples=60)
def test_mean_variance_non_negative(votes):
    f = get_aggregate("mean_variance")
    assert f.finalize(f.over(votes)) >= -1e-6


@given(votes=votes_strategy)
@settings(max_examples=60)
def test_count_equals_membership(votes):
    f = get_aggregate("count")
    state = f.over(votes)
    assert f.finalize(state) == len(votes)
    assert state.covers() == len(votes)


@given(name=aggregate_names, votes=votes_strategy)
@settings(max_examples=40)
def test_wire_size_constant_in_group_size(name, votes):
    """The paper's composability size constraint: output size does not
    grow with how many votes went in."""
    f = get_aggregate(name)
    single = f.lift(min(votes), votes[min(votes)])
    whole = f.over(votes)
    assert whole.wire_size() == single.wire_size()


#: Votes that stress the column form: ties, signed zeros, infinities, NaN.
edge_votes = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf,
                     math.nan]),
    st.floats(min_value=-1e6, max_value=1e6),
)


def _bits(value):
    """A payload's exact content: float bits, and the type of the rest.

    Every NaN reads the same: which NaN an operation returns depends on
    the order the compiled code hands its operands to the FPU, which
    neither CPython nor numpy fixes — only that it is a NaN.
    """
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return (type(value), value)


@pytest.mark.parametrize("name", [
    name for name in AGGREGATE_NAMES if get_aggregate(name).columns
])
@given(rows=st.lists(
    st.lists(edge_votes, min_size=1, max_size=6), min_size=1, max_size=8,
))
@settings(max_examples=150)
def test_column_fold_is_merge_all_bit_for_bit(name, rows):
    """Each row's states folded as columns in a state table (left to
    right, the combiner's own scalar operations) give ``merge_all``'s
    payload exactly."""
    f = get_aggregate(name)
    states = [
        [f.lift(10 * row + column, vote) for column, vote in enumerate(votes)]
        for row, votes in enumerate(rows)
    ]
    table = StateTable(f)
    sids = table.extend([state for row in states for state in row])
    lengths = np.array([len(row) for row in states])
    ids = np.zeros((len(states), int(lengths.max())), dtype=np.int64)
    first = np.cumsum(lengths) - lengths
    for row, length in enumerate(lengths.tolist()):
        ids[row, :length] = sids[first[row]:first[row] + length]
    folded = table.payloads(table.compose(ids, lengths, ids))
    for payload, row in zip(folded, states):
        assert _bits(payload) == _bits(f.merge_all(row).payload)
