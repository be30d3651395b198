"""Unit tests for the Grid Box Hierarchy address arithmetic."""

import pytest

from repro.core.gridbox import (
    GridAssignment,
    GridBoxHierarchy,
    SubtreeId,
    shared_dense_assignment,
)
from repro.core.hashing import FairHash, StaticHash


class TestHierarchyShape:
    def test_paper_example_n8_k2(self):
        """Figure 1: N=8, K=2 -> 4 boxes with 2-digit addresses, 3 phases."""
        h = GridBoxHierarchy(8, 2)
        assert h.digits == 2
        assert h.num_boxes == 4
        assert h.num_phases == 3

    def test_exact_power_n64_k4(self):
        h = GridBoxHierarchy(64, 4)
        assert h.num_boxes == 16
        assert h.num_phases == 3

    def test_non_power_targets_n_over_k_boxes(self):
        h = GridBoxHierarchy(200, 4)
        # N/K = 50; nearest power of 4 is 64.
        assert h.num_boxes == 64

    def test_small_group_has_at_least_k_boxes(self):
        h = GridBoxHierarchy(3, 2)
        assert h.num_boxes == 2
        assert h.num_phases == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GridBoxHierarchy(0, 2)
        with pytest.raises(ValueError):
            GridBoxHierarchy(10, 1)


class TestAddressing:
    def test_digit_roundtrip(self):
        h = GridBoxHierarchy(64, 4)
        for box in range(h.num_boxes):
            assert h.box_from_digits(h.digits_of(box)) == box

    def test_format_address_matches_figure1(self):
        h = GridBoxHierarchy(8, 2)
        assert [h.format_address(b) for b in range(4)] == [
            "00", "01", "10", "11",
        ]

    def test_digits_validate_range(self):
        h = GridBoxHierarchy(8, 2)
        with pytest.raises(ValueError):
            h.digits_of(4)
        with pytest.raises(ValueError):
            h.box_from_digits([2, 0])
        with pytest.raises(ValueError):
            h.box_from_digits([0])  # too few digits


class TestSubtrees:
    def test_height1_subtree_is_own_box(self):
        h = GridBoxHierarchy(8, 2)
        assert h.subtree_of(2, 1) == SubtreeId(2, 2)

    def test_top_subtree_is_root(self):
        h = GridBoxHierarchy(8, 2)
        assert h.subtree_of(3, 3) == h.root()

    def test_figure1_subtree_membership(self):
        """Boxes 00 and 01 share subtree 0*; 10 and 11 share 1*."""
        h = GridBoxHierarchy(8, 2)
        assert h.subtree_of(0, 2) == h.subtree_of(1, 2)
        assert h.subtree_of(2, 2) == h.subtree_of(3, 2)
        assert h.subtree_of(0, 2) != h.subtree_of(2, 2)

    def test_child_subtrees_partition_parent(self):
        h = GridBoxHierarchy(64, 4)
        parent = h.subtree_of(13, 3)
        children = h.child_subtrees(parent)
        assert len(children) == 4
        covered = set()
        for child in children:
            boxes = {b for b in range(h.num_boxes) if h.contains(child, b)}
            assert not (boxes & covered)
            covered |= boxes
        parent_boxes = {
            b for b in range(h.num_boxes) if h.contains(parent, b)
        }
        assert covered == parent_boxes

    def test_grid_box_has_no_subtree_children(self):
        h = GridBoxHierarchy(8, 2)
        with pytest.raises(ValueError):
            h.child_subtrees(h.subtree_of(0, 1))

    def test_contains_nested(self):
        h = GridBoxHierarchy(64, 4)
        box = 13
        for phase in range(1, h.num_phases + 1):
            assert h.contains(h.subtree_of(box, phase), box)

    def test_phase_out_of_range(self):
        h = GridBoxHierarchy(8, 2)
        with pytest.raises(ValueError):
            h.subtree_of(0, 0)
        with pytest.raises(ValueError):
            h.subtree_of(0, 4)


class TestAssignment:
    def _figure1_assignment(self):
        """The exact Figure 1 layout: M7,M3,M8 | M6,M5 | M2,M4 | M1."""
        h = GridBoxHierarchy(8, 2)
        boxes = {7: 0, 3: 0, 8: 0, 6: 1, 5: 1, 2: 2, 4: 2, 1: 3}
        return h, GridAssignment(h, boxes, StaticHash(boxes))

    def test_members_of_box(self):
        __, a = self._figure1_assignment()
        assert set(a.members_of_box(0)) == {7, 3, 8}
        assert set(a.members_of_box(3)) == {1}

    def test_empty_box(self):
        h = GridBoxHierarchy(8, 2)
        a = GridAssignment(h, [1, 2], StaticHash({1: 0, 2: 0}))
        assert a.members_of_box(3) == ()

    def test_peers_in_subtree_excludes_self(self):
        __, a = self._figure1_assignment()
        view = [1, 2, 3, 4, 5, 6, 7, 8]
        assert set(a.peers_in_subtree(7, 1, view)) == {3, 8}
        assert set(a.peers_in_subtree(7, 2, view)) == {3, 8, 6, 5}
        assert set(a.peers_in_subtree(7, 3, view)) == {3, 8, 6, 5, 2, 4, 1}

    def test_peers_respect_view(self):
        __, a = self._figure1_assignment()
        assert set(a.peers_in_subtree(7, 2, [7, 5])) == {5}

    def test_members_in_subtree_shared_tuple_is_stable(self):
        h, a = self._figure1_assignment()
        subtree = h.subtree_of(0, 2)
        assert a.members_in_subtree(subtree) is a.members_in_subtree(subtree)
        assert set(a.members_in_subtree(subtree)) == {7, 3, 8, 6, 5}

    def test_pool_and_position_is_the_shared_tuple_and_its_index(self):
        h, figure1 = self._figure1_assignment()
        dense = GridAssignment(GridBoxHierarchy(200, 4), range(200), FairHash())
        for assignment in (figure1, dense):
            hierarchy = assignment.hierarchy
            for member in assignment.member_ids:
                for phase in range(1, hierarchy.num_phases + 1):
                    pool, position = assignment.pool_and_position(
                        member, phase
                    )
                    assert pool is assignment.members_in_subtree(
                        assignment.subtree_of(member, phase)
                    )
                    assert position == pool.index(member)

    def test_occupied_children(self):
        h = GridBoxHierarchy(8, 2)
        boxes = {1: 0, 2: 0, 3: 3}  # box 1 and 2 empty
        a = GridAssignment(h, boxes, StaticHash(boxes))
        left = h.subtree_of(0, 2)
        right = h.subtree_of(3, 2)
        assert a.occupied_children(left) == (SubtreeId(2, 0),)
        assert a.occupied_children(right) == (SubtreeId(2, 3),)

    def test_occupied_child_keys_phase1_is_box_members(self):
        __, a = self._figure1_assignment()
        assert set(a.occupied_child_keys(7, 1)) == {7, 3, 8}

    def test_fair_hash_assignment_covers_all_members(self):
        h = GridBoxHierarchy(128, 4)
        members = range(1000, 1128)
        a = GridAssignment(h, members, FairHash(salt=1))
        assert sorted(a.member_ids) == sorted(members)
        total = sum(len(a.members_of_box(b)) for b in range(h.num_boxes))
        assert total == 128

    def test_has_member(self):
        __, a = self._figure1_assignment()
        assert a.has_member(7)
        assert not a.has_member(99)

    def test_rank_is_box_address_then_member_id(self):
        # Figure 1: box 00 = {3, 7, 8}, 01 = {5, 6}, 10 = {2, 4}, 11 = {1}.
        h, a = self._figure1_assignment()
        assert a.members_by_rank() == (3, 7, 8, 5, 6, 2, 4, 1)
        assert [a.rank_of(m) for m in (3, 7, 8, 1)] == [0, 1, 2, 7]
        assert a.member_at(3) == 5
        assert a.subtree_rank_range(h.subtree_of(1, 1)) == range(3, 5)
        assert a.subtree_rank_range(h.subtree_of(1, 2)) == range(0, 5)
        assert a.subtree_rank_range(h.root()) == range(0, 8)
        for rank in (-1, 8):
            with pytest.raises(IndexError):
                a.member_at(rank)
        with pytest.raises(KeyError):
            a.rank_of(99)


class TestSubtreeId:
    def test_tuple_semantics(self):
        s = SubtreeId(2, 3)
        assert s == (2, 3)
        assert s.prefix_length == 2
        assert s.prefix_value == 3
        assert hash(s) == hash((2, 3))


class TestIntegerExactLog:
    """Hierarchy sizing at and around exact powers of K.

    ``digits`` is round(log_K(N / K)); at N = K**m the log is exactly
    m - 1, and one member more or less must not move it (the nearest
    half-integer boundary is sqrt(K) away).  The old float-log formula
    could be off by one near these points; the integer version is exact
    by construction, which these pins enforce.
    """

    KS = (2, 3, 4, 5, 7, 16)

    @pytest.mark.parametrize("k", KS)
    def test_exact_powers(self, k):
        m = 2
        while k ** m <= 1_000_000:
            h = GridBoxHierarchy(k ** m, k)
            assert h.digits == m - 1, (k, m)
            assert h.num_boxes == k ** (m - 1)
            assert h.num_phases == m
            m += 1

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("offset", [-1, +1])
    def test_neighbours_of_exact_powers(self, k, offset):
        m = 2
        while k ** m <= 1_000_000:
            h = GridBoxHierarchy(k ** m + offset, k)
            assert h.digits == max(1, m - 1), (k, m, offset)
            m += 1

    def test_half_integer_ties_round_to_even(self):
        # K = 4: N = 8 has log_4(N/4) = 0.5 exactly, N = 32 has 1.5.
        # round() rounds halves to even; the integer log must match.
        assert GridBoxHierarchy(8, 4).digits == 1   # round(0.5) = 0 -> min 1
        assert GridBoxHierarchy(32, 4).digits == 2  # round(1.5) = 2


class TestSharedDenseAssignment:
    def test_cache_hit_returns_same_object(self):
        a = shared_dense_assignment(64, 4, 64, FairHash(salt=3))
        b = shared_dense_assignment(64, 4, 64, FairHash(salt=3))
        assert a is b

    def test_distinct_keys_get_distinct_assignments(self):
        base = shared_dense_assignment(64, 4, 64, FairHash(salt=3))
        assert shared_dense_assignment(64, 4, 64, FairHash(salt=4)) is not base
        assert shared_dense_assignment(64, 2, 64, FairHash(salt=3)) is not base
        assert shared_dense_assignment(72, 4, 72, FairHash(salt=3)) is not base

    def test_cached_assignment_matches_direct_construction(self):
        cached = shared_dense_assignment(64, 4, 64, FairHash(salt=9))
        direct = GridAssignment(
            GridBoxHierarchy(64, 4), range(64), FairHash(salt=9)
        )
        assert cached.member_ids == direct.member_ids
        assert [cached.box_of(m) for m in range(64)] == [
            direct.box_of(m) for m in range(64)
        ]

    def test_uncacheable_hash_builds_fresh_assignments(self):
        # StaticHash has no cache_key (placement lives in a mutable
        # table), so every call must construct a new assignment.
        table = {m: m % 16 for m in range(64)}
        a = shared_dense_assignment(64, 4, 64, StaticHash(table))
        b = shared_dense_assignment(64, 4, 64, StaticHash(table))
        assert a is not b
        assert [a.box_of(m) for m in range(64)] == [
            b.box_of(m) for m in range(64)
        ]
