"""Property-based tests for the Grid Box Hierarchy and hash functions."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import FairHash, TopologicalHash

hierarchy_params = st.tuples(
    st.integers(min_value=2, max_value=5000),   # N
    st.integers(min_value=2, max_value=8),      # K
)


@given(params=hierarchy_params)
@settings(max_examples=120)
def test_box_count_is_power_of_k_near_n_over_k(params):
    n, k = params
    h = GridBoxHierarchy(n, k)
    assert h.num_boxes == k**h.digits
    # within one factor-of-K of the ideal N/K box count
    ideal = max(1.0, n / k)
    assert h.num_boxes <= ideal * k
    assert h.num_boxes >= ideal / k


@given(params=hierarchy_params, box_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_address_roundtrip_and_containment(params, box_seed):
    n, k = params
    h = GridBoxHierarchy(n, k)
    box = box_seed % h.num_boxes
    assert h.box_from_digits(h.digits_of(box)) == box
    for phase in range(1, h.num_phases + 1):
        subtree = h.subtree_of(box, phase)
        assert h.contains(subtree, box)
        # Subtrees are nested upward
        if phase > 1:
            inner = h.subtree_of(box, phase - 1)
            span = k ** (h.digits - subtree.prefix_length)
            inner_span = k ** (h.digits - inner.prefix_length)
            assert inner_span <= span


@given(params=hierarchy_params, box_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_children_partition_parent(params, box_seed):
    n, k = params
    h = GridBoxHierarchy(n, k)
    box = box_seed % h.num_boxes
    for phase in range(2, h.num_phases + 1):
        parent = h.subtree_of(box, phase)
        children = h.child_subtrees(parent)
        assert len(children) == k
        # each box in the parent lies in exactly one child
        owners = [
            sum(1 for child in children if h.contains(child, other))
            for other in range(h.num_boxes)
            if h.contains(parent, other)
        ]
        assert all(count == 1 for count in owners)


@given(
    n=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=2, max_value=6),
    salt=st.integers(0, 1000),
)
@settings(max_examples=60)
def test_assignment_covers_every_member_exactly_once(n, k, salt):
    h = GridBoxHierarchy(n, k)
    members = range(n)
    a = GridAssignment(h, members, FairHash(salt=salt))
    seen = []
    for box in range(h.num_boxes):
        seen.extend(a.members_of_box(box))
    assert sorted(seen) == list(members)


@given(
    n=st.integers(min_value=2, max_value=300),
    k=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40)
def test_subtree_members_consistent_with_boxes(n, k):
    h = GridBoxHierarchy(n, k)
    a = GridAssignment(h, range(n), FairHash(salt=1))
    for phase in range(1, h.num_phases + 1):
        # Subtree member groups partition the membership at each height.
        seen = set()
        for member in range(n):
            subtree = a.subtree_of(member, phase)
            group = set(a.members_in_subtree(subtree))
            assert member in group
            seen |= group
        assert seen == set(range(n))


@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([2, 4]),
    digits=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_topological_hash_prefix_refines(seed, k, digits):
    """Members sharing a (d+1)-digit address share the d-digit prefix."""
    import numpy as np

    rng = np.random.default_rng(seed)
    positions = {
        i: (float(x), float(y))
        for i, (x, y) in enumerate(rng.random((30, 2)) * (1 - 1e-9))
    }
    h = TopologicalHash(positions, k=k)
    for member in positions:
        longer = h.digits_for(member, digits + 1)
        shorter = h.digits_for(member, digits)
        assert longer[:digits] == shorter


@given(member=st.integers(0, 2**40), salt=st.integers(0, 100),
       boxes=st.sampled_from([2, 4, 16, 64, 256]))
@settings(max_examples=100)
def test_fair_hash_box_always_in_range(member, salt, boxes):
    h = FairHash(salt=salt)
    assert 0 <= h.box_of(member, boxes) < boxes


@given(
    params=hierarchy_params,
    salt=st.integers(0, 50),
    member_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_hierarchy_rank_makes_every_subtree_one_interval(
    params, salt, member_seed
):
    """Rank = position in (box address, member id) order: a bijection
    onto ``range(n)`` under which any subtree, at any height, is one
    contiguous rank range — what lets a coverage mask hold a complete
    subtree as a single interval."""
    n, k = params
    n = min(n, 600)
    h = GridBoxHierarchy(n, k)
    # Sparse, unordered ids: rank must not lean on ids being dense.
    ids = [(member_seed + 7919 * i) % 100_003 for i in range(n)]
    assignment = GridAssignment(h, dict.fromkeys(ids), FairHash(salt=salt))
    members = assignment.member_ids
    by_rank = assignment.members_by_rank()
    assert sorted(by_rank) == sorted(members)
    assert list(by_rank) == sorted(
        members, key=lambda m: (assignment.box_of(m), m)
    )
    for rank, member in enumerate(by_rank):
        assert assignment.rank_of(member) == rank
        assert assignment.member_at(rank) == member
    for phase in range(1, h.num_phases + 1):
        seen = 0
        for member in members[:: max(1, len(members) // 7)]:
            subtree = assignment.subtree_of(member, phase)
            ranks = assignment.subtree_rank_range(subtree)
            inside = assignment.members_in_subtree(subtree)
            assert ranks.step == 1 and len(ranks) == len(inside)
            assert sorted(map(assignment.rank_of, inside)) == list(ranks)
            seen += 1
        assert seen
    assert assignment.subtree_rank_range(h.root()) == range(len(members))
