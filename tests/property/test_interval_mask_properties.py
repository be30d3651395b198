"""Model test: :class:`IntervalMask` against a ``frozenset`` of ints.

Every operation the protocol, the sanitizer and the codec perform on a
coverage mask is replayed on a plain ``frozenset`` holding the same
integers; the two must agree, and every mask produced must be in
canonical form (sorted, disjoint, *coalesced* closed ranges with the
right stored count).  Slots are drawn from a small universe so that
adjacent ranges, single-element masks, touching-but-disjoint operands
and full overlaps all occur often.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalMask

slots = st.integers(min_value=0, max_value=40)
slot_sets = st.frozensets(slots, max_size=24)
#: Runs of consecutive slots: the shape complete subtrees produce.
runs = st.builds(
    lambda start, length: frozenset(range(start, start + length)),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=12),
)
models = st.one_of(slot_sets, runs, st.builds(frozenset.union, runs, runs))


def assert_canonical(mask: IntervalMask) -> None:
    bounds = mask.bounds
    assert isinstance(bounds, tuple) and len(bounds) % 2 == 0
    count = 0
    previous_hi = -2
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        assert type(lo) is int and type(hi) is int
        assert 0 <= lo <= hi
        assert lo > previous_hi + 1, "ranges overlap, touch or are unsorted"
        previous_hi = hi
        count += hi - lo + 1
    assert mask.count == count == len(mask)
    assert list(mask.intervals()) == list(zip(bounds[::2], bounds[1::2]))


def assert_same(mask, model: frozenset) -> None:
    assert type(mask) is IntervalMask
    assert_canonical(mask)
    assert list(mask) == sorted(model)  # ascending iteration
    assert len(mask) == len(model)
    assert mask == model and model == mask
    assert hash(mask) == hash(model)
    assert bool(mask) == bool(model)


@given(model=models)
def test_construction_iteration_and_membership(model):
    mask = IntervalMask(model)
    assert_same(mask, model)
    assert_same(IntervalMask(sorted(model)), model)  # any iterable
    assert IntervalMask(mask) is mask  # immutable: shared, not copied
    for slot in range(-1, 43):
        assert (slot in mask) == (slot in model)
    assert "7" not in mask and 7.5 not in mask
    # The canonical form is the identity of the set.
    assert IntervalMask.from_bounds(mask.bounds) == mask
    assert IntervalMask.from_bounds(list(mask.bounds)).bounds == mask.bounds
    assert pickle.loads(pickle.dumps(mask)) == mask


@given(a=models, b=models)
@settings(max_examples=300)
def test_binary_operations_match_frozenset(a, b):
    x, y = IntervalMask(a), IntervalMask(b)
    assert_same(x | y, a | b)
    assert_same(x & y, a & b)
    assert_same(x - y, a - b)
    assert_same(x ^ y, a ^ b)
    assert x.isdisjoint(y) == a.isdisjoint(b)
    assert (x <= y) == (a <= b)
    assert (x < y) == (a < b)
    assert (x >= y) == (a >= b)
    assert (x == y) == (a == b)
    assert (hash(x) == hash(y)) or a != b
    # Mixed operands: a mask combines with plain sets from either side.
    assert_same(x | b, a | b)
    assert_same(a & y, a & b)
    assert_same(x - b, a - b)
    assert_same(a - y, a - b)
    assert (x <= b) == (a <= b) == (a <= y)
    assert x.isdisjoint(b) == a.isdisjoint(b)


@given(a=models, b=models)
@settings(max_examples=300)
def test_union_disjoint_is_union_or_none(a, b):
    """The merge primitive: the union when no slot is shared, else None."""
    merged = IntervalMask(a).union_disjoint(IntervalMask(b))
    if a & b:
        assert merged is None
    else:
        assert_same(merged, a | b)


@given(parts=st.lists(runs, min_size=1, max_size=8), data=st.data())
def test_folding_disjoint_runs_in_any_order_coalesces(parts, data):
    """Sibling subtrees arrive in any order; the fold is order-blind."""
    disjoint, seen = [], frozenset()
    for part in parts:
        part -= seen
        seen |= part
        disjoint.append(part)
    order = data.draw(st.permutations(disjoint))
    mask = IntervalMask()
    for part in order:
        mask = mask.union_disjoint(IntervalMask(part))
    assert_same(mask, seen)


def test_adjacent_ranges_coalesce_and_singletons_stay_single():
    assert IntervalMask({3}).bounds == (3, 3)
    assert IntervalMask.single(3) == IntervalMask({3})
    assert IntervalMask(range(0, 64)).bounds == (0, 63)
    assert IntervalMask(frozenset(range(64))).bounds == (0, 63)
    left, right = IntervalMask(range(0, 8)), IntervalMask(range(8, 16))
    assert left.union_disjoint(right).bounds == (0, 15)
    assert right.union_disjoint(left).bounds == (0, 15)
    middle = IntervalMask(range(0, 4)) | IntervalMask(range(8, 12))
    assert middle.union_disjoint(IntervalMask(range(4, 8))).bounds == (0, 11)
    assert middle.union_disjoint(IntervalMask({4})).bounds == (0, 4, 8, 11)
    assert middle.union_disjoint(IntervalMask({3})) is None
    assert middle.union_disjoint(IntervalMask({8})) is None
    assert repr(middle) == "IntervalMask({0-3, 8-11})"


@pytest.mark.parametrize("bounds, complaint", [
    ([0], "odd-length"),
    ([0, True], "not an int"),
    ([0.0, 1], "not an int"),
    ([-1, 1], "negative"),
    ([5, 3], "unsorted or overlapping"),
    ([4, 6, 0, 2], "unsorted or overlapping"),
    ([0, 5, 5, 9], "unsorted or overlapping"),
    ([0, 3, 4, 9], "not coalesced"),
])
def test_from_bounds_accepts_only_the_canonical_spelling(bounds, complaint):
    with pytest.raises(ValueError, match=complaint):
        IntervalMask.from_bounds(bounds)


def test_general_constructor_rejects_what_a_mask_cannot_hold():
    with pytest.raises(ValueError, match="negative"):
        IntervalMask({-1, 2})
    with pytest.raises(ValueError, match="negative"):
        IntervalMask(range(-3, 2))
    with pytest.raises(ValueError, match="not an int"):
        IntervalMask([True])
