"""Interval masks: sets of non-negative integers stored as ranges.

An :class:`IntervalMask` is an immutable set of *slots* kept in one
canonical form: a flat tuple ``(lo0, hi0, lo1, hi1, ...)`` of closed,
disjoint, coalesced ranges in ascending order (adjacent ranges are
always merged, so equal sets have equal tuples), plus the stored
element count.  Union, intersection, difference, disjointness and
subset are merges over the ranges, never over the elements; ``len`` is
O(1) and ``in`` is one bisect.

The mask knows nothing about members or hierarchies — plain integers
in, plain integers out.  What makes it *short* is the caller's choice of
slots: :class:`~repro.core.gridbox.GridAssignment` numbers members by
hierarchy rank, so a complete subtree's coverage is one range
(Section 6.1: a subtree is a prefix range of box addresses) and a lossy
one is a few.  The wire form (:mod:`repro.net.codec`) is the flat
tuple as gap/span deltas, which can spell nothing but a canonical one;
:meth:`IntervalMask.from_bounds` validates any other outside input.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Set
from itertools import chain

__all__ = ["IntervalMask"]


class IntervalMask(Set):
    """An immutable, canonical set of non-negative ints (see module doc).

    A :class:`collections.abc.Set`: it compares equal to (and hashes
    like) a ``frozenset`` of the same integers and combines with any set
    through the usual operators.  ``bounds`` and ``count`` are plain
    attributes for speed; treat them as read-only.
    """

    __slots__ = ("bounds", "count", "_hash_value")

    bounds: tuple[int, ...]
    count: int

    def __new__(cls, slots: Iterable[int] = ()) -> "IntervalMask":
        if type(slots) is cls:
            return slots  # immutable: share it
        if type(slots) is range and slots.step == 1:
            if not slots:
                return _make(cls, (), 0)
            if slots.start < 0:
                raise ValueError(f"negative slot {slots.start}")
            return _make(cls, (slots.start, slots[-1]), len(slots))
        ordered = sorted(set(slots))
        bounds: list[int] = []
        for slot in ordered:
            if type(slot) is not int:
                raise ValueError(f"slot {slot!r} is not an int")
            if bounds and slot == bounds[-1] + 1:
                bounds[-1] = slot
            else:
                bounds.append(slot)
                bounds.append(slot)
        if bounds and bounds[0] < 0:
            raise ValueError(f"negative slot {bounds[0]}")
        return _make(cls, tuple(bounds), len(ordered))

    @classmethod
    def single(cls, slot: int) -> "IntervalMask":
        """The one-slot mask ``{slot}`` (no validation: the lift path)."""
        return _make(cls, (slot, slot), 1)

    @classmethod
    def from_bounds(cls, bounds: Iterable[int]) -> "IntervalMask":
        """The mask whose canonical form is exactly ``bounds``.

        Strict, for input from outside the program: :class:`ValueError`
        unless ``bounds`` is an even-length sequence of non-bool,
        non-negative ints forming ascending, disjoint, *coalesced*
        closed ranges.  Every mask therefore has one accepted spelling:
        ``from_bounds(m.bounds) == m`` and
        ``from_bounds(b).bounds == tuple(b)``.
        """
        bounds = tuple(bounds)
        if len(bounds) % 2:
            raise ValueError("odd-length interval list")
        previous = -2  # so the first lo must be >= 0
        count = 0
        for index in range(0, len(bounds), 2):
            lo = bounds[index]
            hi = bounds[index + 1]
            if type(lo) is not int or type(hi) is not int:
                raise ValueError("interval bound is not an int")
            if lo < 0:
                raise ValueError(f"negative interval bound {lo}")
            if hi < lo or lo <= previous:
                raise ValueError("intervals unsorted or overlapping")
            if lo == previous + 1:
                raise ValueError("adjacent intervals not coalesced")
            previous = hi
            count += hi - lo + 1
        return _make(cls, bounds, count)

    @classmethod
    def _from_iterable(cls, slots: Iterable[int]) -> "IntervalMask":
        return cls(slots)  # what the Set mixins build results with

    # -- element view ------------------------------------------------------
    def intervals(self) -> Iterator[tuple[int, int]]:
        """The closed ``(lo, hi)`` ranges, ascending."""
        bounds = self.bounds
        return zip(bounds[::2], bounds[1::2])

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(
            range(lo, hi + 1) for lo, hi in self.intervals()
        )

    def __contains__(self, slot: object) -> bool:
        if not isinstance(slot, int):
            return False
        # Odd insertion point: lo <= slot, and slot <= hi unless it sits
        # past that range's hi — both bounds bisect to the right.
        bounds = self.bounds
        index = bisect_right(bounds, slot)
        return index % 2 == 1 or (index > 0 and bounds[index - 1] == slot)

    def __eq__(self, other: object) -> bool:
        if type(other) is IntervalMask:
            return self.bounds == other.bounds
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        # frozenset's hash, so equal sets collide as they must: O(count),
        # computed on first use only (no hot path hashes a mask).
        try:
            return self._hash_value
        except AttributeError:
            self._hash_value = self._hash()
            return self._hash_value

    def __reduce__(self):
        return (_make, (IntervalMask, self.bounds, self.count))

    def __repr__(self) -> str:
        spans = ", ".join(
            str(lo) if lo == hi else f"{lo}-{hi}"
            for lo, hi in self.intervals()
        )
        return f"IntervalMask({{{spans}}})"

    # -- set algebra (range merges for two masks, Set mixins otherwise) ----
    def union_disjoint(self, other: "IntervalMask") -> "IntervalMask | None":
        """``self | other`` if the two share no slot, else ``None``.

        The merge path of :meth:`AggregateFunction.merge_all
        <repro.core.aggregates.AggregateFunction.merge_all>`.  The
        common case — ``other`` lies wholly past ``self``, as the next
        box member's or sibling subtree's ranks do — is one comparison
        and one tuple concatenation; otherwise each of ``other``'s
        ranges is bisected into place (:func:`_splice`).
        """
        bounds = self.bounds
        theirs = other.bounds
        if not bounds or not theirs:
            return self if bounds else other
        gap = theirs[0] - bounds[-1]
        if gap > 1:
            bounds += theirs
        elif gap == 1:
            bounds = bounds[:-1] + theirs[1:]
        else:
            bounds = _splice(bounds, theirs)
            if bounds is None:
                return None
        mask = object.__new__(IntervalMask)  # _make, inlined: hot
        mask.bounds = bounds
        mask.count = self.count + other.count
        return mask

    def __or__(self, other):
        if type(other) is not IntervalMask:
            return Set.__or__(self, other)
        return self.union_disjoint(other - self)

    __ror__ = __or__

    def __and__(self, other):
        if type(other) is not IntervalMask:
            return Set.__and__(self, other)
        mine, theirs = self.bounds, other.bounds
        out: list[int] = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            lo = max(mine[i], theirs[j])
            hi = min(mine[i + 1], theirs[j + 1])
            if lo <= hi:
                out.append(lo)
                out.append(hi)
            # Advance whichever range ends first (both on a tie).
            if mine[i + 1] <= hi:
                i += 2
            if theirs[j + 1] <= hi:
                j += 2
        return _make(IntervalMask, tuple(out), _count(out))

    __rand__ = __and__

    def __sub__(self, other):
        if type(other) is not IntervalMask:
            return Set.__sub__(self, other)
        theirs = other.bounds
        out: list[int] = []
        j = 0
        for lo, hi in self.intervals():
            while j < len(theirs) and theirs[j + 1] < lo:
                j += 2
            k = j
            while k < len(theirs) and theirs[k] <= hi:
                if theirs[k] > lo:
                    out.append(lo)
                    out.append(theirs[k] - 1)
                lo = theirs[k + 1] + 1
                k += 2
            if lo <= hi:
                out.append(lo)
                out.append(hi)
        return _make(IntervalMask, tuple(out), _count(out))

    def isdisjoint(self, other) -> bool:
        if type(other) is not IntervalMask:
            return Set.isdisjoint(self, other)
        return not (self & other).count

    def __le__(self, other) -> bool:
        if type(other) is not IntervalMask:
            return Set.__le__(self, other)
        return self.count <= other.count and (
            (self & other).count == self.count
        )


def _make(cls, bounds: tuple[int, ...], count: int) -> IntervalMask:
    """Wrap already-canonical ``bounds`` (no validation)."""
    mask = object.__new__(cls)
    mask.bounds = bounds
    mask.count = count
    return mask


def _splice(bounds: tuple[int, ...], theirs: tuple[int, ...]):
    """``bounds`` with each of ``theirs``' ranges bisected into place
    (coalescing with neighbours), or ``None`` if any slot is in both."""
    for index in range(0, len(theirs), 2):
        lo = theirs[index]
        hi = theirs[index + 1]
        gap = lo - bounds[-1]
        if gap > 0:  # the rest lies past everything spliced so far
            if gap == 1:
                return bounds[:-1] + theirs[index + 1:]
            return bounds + theirs[index:]
        # bounds[:at] are <= lo.  Disjoint means ``at`` is even (lo
        # inside no range), the range before ends below lo, and the
        # range after starts above hi.
        at = bisect_right(bounds, lo)
        if at % 2 or (at and bounds[at - 1] == lo) or bounds[at] <= hi:
            return None
        below = bounds[:at]
        above = bounds[at:]
        if at and below[-1] == lo - 1:
            below = below[:-1]  # touches the range before: extend it
        else:
            below += (lo,)
        if above[0] == hi + 1:
            above = above[1:]  # touches the range after: extend it
        else:
            above = (hi,) + above
        bounds = below + above
    return bounds


def _count(bounds) -> int:
    return sum(bounds[1::2]) - sum(bounds[::2]) + len(bounds) // 2
