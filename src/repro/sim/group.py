"""Group membership and member views.

Section 2 of the paper: each member maintains a *view* — the list of other
group members it knows about.  The analysis assumes complete views; the
Hierarchical Gossiping protocol only needs each member's view to cover its
own grid box and sibling subtrees well enough to pick gossipees.

Everyone knowing everyone (the paper's simulations) is the protocol's
default and needs no object; :class:`PartialViews` gives each member a
random fixed-size subset (always including itself), used in robustness
extension experiments.

Views are static for the duration of a one-shot aggregation run, matching
the paper (no failure detection is required or used).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.rng import RngRegistry
from repro.sim.sampling import BlockedSampler

__all__ = ["GroupMembership", "PartialViews"]


class GroupMembership:
    """The (initial) membership of the group: a set of unique member ids.

    Ids are arbitrary ints — in deployment scenarios they model imprinted
    sensor identifiers or network addresses, so they need not be dense.
    """

    def __init__(self, member_ids: Sequence[int]):
        ids = list(member_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        if not ids:
            raise ValueError("a group must have at least one member")
        self.member_ids: tuple[int, ...] = tuple(ids)
        self._index = {mid: i for i, mid in enumerate(self.member_ids)}

    @classmethod
    def of_size(cls, n: int, start: int = 0) -> "GroupMembership":
        """Convenience: a dense group ``{start, ..., start+n-1}``."""
        return cls(range(start, start + n))

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, member_id: int) -> bool:
        return member_id in self._index

    def __iter__(self):
        return iter(self.member_ids)

    def index_of(self, member_id: int) -> int:
        return self._index[member_id]


class PartialViews:
    """Each member knows a uniform random subset of size ``view_size``.

    The member itself is always in its own view.  Deterministic given the
    registry seed.
    """

    def __init__(
        self,
        membership: GroupMembership,
        view_size: int,
        rngs: RngRegistry,
    ):
        n = len(membership)
        if not 1 <= view_size <= n:
            raise ValueError(f"view_size must be in [1, {n}], got {view_size}")
        self.membership = membership
        self.view_size = view_size
        self._views: dict[int, tuple[int, ...]] = {}
        sampler = BlockedSampler(rngs.stream("views"))
        all_ids = membership.member_ids
        take = min(view_size - 1, n - 1)
        for member_id in membership:
            # Sample from the pool minus self: draw indices over n-1 and
            # shift past the member's own slot (no per-member id array).
            own = membership.index_of(member_id)
            picks = sampler.pick_distinct(n - 1, take) if take else ()
            chosen = (
                all_ids[i + 1] if i >= own else all_ids[i] for i in picks
            )
            view = sorted({member_id, *chosen})
            self._views[member_id] = tuple(view)

    def view_of(self, member_id: int) -> tuple[int, ...]:
        return self._views[member_id]
