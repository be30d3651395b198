"""Unit tests for partial member views."""

import pytest

from repro.sim.group import PartialViews
from repro.sim.rng import RngRegistry


class TestPartialViews:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PartialViews([1, 1, 2], view_size=2, rngs=RngRegistry(0))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            PartialViews([], view_size=1, rngs=RngRegistry(0))

    def test_view_size_respected(self):
        group = tuple(range(20))
        views = PartialViews(group, view_size=5, rngs=RngRegistry(0))
        for member in group:
            assert len(views.view_of(member)) == 5

    def test_self_always_in_view(self):
        group = tuple(range(20))
        views = PartialViews(group, view_size=3, rngs=RngRegistry(1))
        for member in group:
            assert member in views.view_of(member)

    def test_views_within_membership(self):
        group = (7, 8, 9, 10)
        views = PartialViews(group, view_size=2, rngs=RngRegistry(2))
        for member in group:
            assert set(views.view_of(member)) <= set(group)

    def test_deterministic_given_seed(self):
        group = tuple(range(10))
        a = PartialViews(group, view_size=4, rngs=RngRegistry(3))
        b = PartialViews(group, view_size=4, rngs=RngRegistry(3))
        assert all(a.view_of(m) == b.view_of(m) for m in group)

    def test_size_bounds_validated(self):
        group = tuple(range(3))
        with pytest.raises(ValueError):
            PartialViews(group, view_size=0, rngs=RngRegistry(0))
        with pytest.raises(ValueError):
            PartialViews(group, view_size=4, rngs=RngRegistry(0))

    def test_full_view_size_equals_complete(self):
        group = tuple(range(6))
        views = PartialViews(group, view_size=6, rngs=RngRegistry(0))
        for member in group:
            assert set(views.view_of(member)) == set(group)
