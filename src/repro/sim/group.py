"""Member views of the group.

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

__all__ = ["PartialViews"]


class PartialViews:
    """Each member knows a uniform random subset of size ``view_size``.

    ``member_ids`` are the group's unique ids, arbitrary ints (imprinted
    sensor identifiers or network addresses need not be dense).  The
    member itself is always in its own view.  Deterministic given the
    registry seed.
    """

    def __init__(
        self,
        member_ids: Sequence[int],
        view_size: int,
        rngs: RngRegistry,
    ):
        all_ids = tuple(member_ids)
        n = len(all_ids)
        if len(set(all_ids)) != n:
            raise ValueError("member ids must be unique")
        if not 1 <= view_size <= n:
            raise ValueError(f"view_size must be in [1, {n}], got {view_size}")
        self.view_size = view_size
        self._views: dict[int, tuple[int, ...]] = {}
        sampler = BlockedSampler(rngs.stream("views"))
        take = min(view_size - 1, n - 1)
        for own, member_id in enumerate(all_ids):
            # Sample from the pool minus self: draw indices over n-1 and
            # shift past the member's own slot (no per-member id array).
            picks = sampler.pick_distinct(n - 1, take) if take else ()
            chosen = (
                all_ids[i + 1] if i >= own else all_ids[i] for i in picks
            )
            view = sorted({member_id, *chosen})
            self._views[member_id] = tuple(view)

    def view_of(self, member_id: int) -> tuple[int, ...]:
        return self._views[member_id]
