"""Unit tests for membership and views."""

import pytest

from repro.sim.group import GroupMembership, PartialViews
from repro.sim.rng import RngRegistry


class TestGroupMembership:
    def test_of_size(self):
        group = GroupMembership.of_size(5, start=10)
        assert list(group) == [10, 11, 12, 13, 14]
        assert len(group) == 5

    def test_uniqueness_enforced(self):
        with pytest.raises(ValueError):
            GroupMembership([1, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroupMembership([])

    def test_contains_and_index(self):
        group = GroupMembership([5, 9, 2])
        assert 9 in group
        assert 7 not in group
        assert group.index_of(2) == 2


class TestPartialViews:
    def test_view_size_respected(self):
        group = GroupMembership.of_size(20)
        views = PartialViews(group, view_size=5, rngs=RngRegistry(0))
        for member in group:
            assert len(views.view_of(member)) == 5

    def test_self_always_in_view(self):
        group = GroupMembership.of_size(20)
        views = PartialViews(group, view_size=3, rngs=RngRegistry(1))
        for member in group:
            assert member in views.view_of(member)

    def test_views_within_membership(self):
        group = GroupMembership([7, 8, 9, 10])
        views = PartialViews(group, view_size=2, rngs=RngRegistry(2))
        for member in group:
            assert set(views.view_of(member)) <= set(group)

    def test_deterministic_given_seed(self):
        group = GroupMembership.of_size(10)
        a = PartialViews(group, view_size=4, rngs=RngRegistry(3))
        b = PartialViews(group, view_size=4, rngs=RngRegistry(3))
        assert all(a.view_of(m) == b.view_of(m) for m in group)

    def test_size_bounds_validated(self):
        group = GroupMembership.of_size(3)
        with pytest.raises(ValueError):
            PartialViews(group, view_size=0, rngs=RngRegistry(0))
        with pytest.raises(ValueError):
            PartialViews(group, view_size=4, rngs=RngRegistry(0))

    def test_full_view_size_equals_complete(self):
        group = GroupMembership.of_size(6)
        views = PartialViews(group, view_size=6, rngs=RngRegistry(0))
        for member in group:
            assert set(views.view_of(member)) == set(group)
