"""The Grid Box Hierarchy (paper Section 6.1).

The group's ``N`` members are divided into about ``N/K`` *grid boxes*
(expected ``K`` members each) by a hash function.  Each grid box carries a
``D``-digit base-``K`` address, where ``D = log_K(N) - 1`` for exact powers
(we use ``D = max(1, ceil(log_K N) - 1)`` in general).  For
``1 <= i <= D+1``, the *height-i subtree* containing a box consists of all
boxes agreeing with it in the most significant ``(D + 1 - i)`` digits:

* height 1  — the box itself (all ``D`` digits agree);
* height D+1 — the root (no digits need agree), i.e. the whole group.

Aggregation proceeds bottom-up through these subtrees in ``D + 1`` phases
(``log_K N`` for exact powers), exactly as Figure 2 of the paper shows for
``N = 8, K = 2``.

:class:`GridBoxHierarchy` is the pure address arithmetic;
:class:`GridAssignment` binds it to a concrete membership and hash
function and answers the queries the protocols need ("who shares my
height-i subtree?", "what are the child prefixes of my phase-i subtree?").
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from repro.core.hashing import HashFunction

__all__ = [
    "SubtreeId",
    "GridBoxHierarchy",
    "GridAssignment",
    "shared_dense_assignment",
]


def _rounded_log_digits(group_size: int, k: int) -> int:
    """Integer-exact ``round(log_k(group_size / k))``.

    ``math.log(N / K, K)`` is float-imprecise even for exact powers of K
    (``math.log(3**5, 3)`` is not 5.0), which can mis-size the hierarchy
    by one digit near half-integer boundaries.  Work in integers instead:
    the candidate ``d`` satisfies ``K**(2d+1) <= N*N < K**(2d+3)``, i.e.
    ``2d + 1 <= floor(log_K(N^2)) = p``.  Ties (``N*N == K**(2d+1)``,
    a half-integer log) round half-to-even exactly like ``round()``.
    """
    n_squared = group_size * group_size
    p = 0
    power = 1
    while power * k <= n_squared:
        power *= k
        p += 1
    if p % 2 == 0:
        return p // 2 - 1
    m = (p - 1) // 2
    if power == n_squared and m % 2 != 0:
        return m - 1  # exact .5: round half to even, like round()
    return m


class SubtreeId(tuple):
    """Identifier of a subtree: ``(prefix_length, prefix_value)``.

    ``prefix_value`` is the integer formed by the most significant
    ``prefix_length`` base-K digits of any member box's address.  A plain
    tuple subclass so it hashes/compares naturally and is cheap to ship in
    simulated messages.
    """

    __slots__ = ()

    def __new__(cls, prefix_length: int, prefix_value: int):
        return super().__new__(cls, (prefix_length, prefix_value))

    @property
    def prefix_length(self) -> int:
        return self[0]

    @property
    def prefix_value(self) -> int:
        return self[1]


class GridBoxHierarchy:
    """Address arithmetic for the hierarchy over ``num_boxes = K**digits``."""

    def __init__(self, group_size: int, k: int):
        if group_size < 1:
            raise ValueError("group_size must be positive")
        if k < 2:
            raise ValueError("K must be at least 2 (paper uses K >= 2)")
        self.group_size = int(group_size)
        self.k = int(k)
        # The paper wants about N/K grid boxes, i.e. (log_K N - 1) address
        # digits; for non-powers we round log_K(N/K) to the nearest integer
        # so K**digits stays as close to N/K as the base allows.  The
        # rounding is integer-exact (see :func:`_rounded_log_digits`).
        self.digits = max(1, _rounded_log_digits(self.group_size, self.k))
        self.num_boxes = self.k ** self.digits
        #: Number of protocol phases (= log_K N for exact powers of K).
        self.num_phases = self.digits + 1

    # -- address helpers -------------------------------------------------
    def check_box(self, box: int) -> None:
        if not 0 <= box < self.num_boxes:
            raise ValueError(
                f"box {box} out of range [0, {self.num_boxes})"
            )

    def digits_of(self, box: int) -> tuple[int, ...]:
        """Base-K digits of a box address, most significant first."""
        self.check_box(box)
        digits = []
        for __ in range(self.digits):
            digits.append(box % self.k)
            box //= self.k
        return tuple(reversed(digits))

    def box_from_digits(self, digits: Iterable[int]) -> int:
        """Inverse of :meth:`digits_of`."""
        box = 0
        count = 0
        for digit in digits:
            if not 0 <= digit < self.k:
                raise ValueError(f"digit {digit} out of base-{self.k} range")
            box = box * self.k + digit
            count += 1
        if count != self.digits:
            raise ValueError(f"expected {self.digits} digits, got {count}")
        return box

    def format_address(self, box: int) -> str:
        """Human-readable base-K address string, e.g. ``'01'`` (Figure 1)."""
        return "".join(str(d) for d in self.digits_of(box))

    # -- subtree structure -------------------------------------------------
    def check_phase(self, phase: int) -> None:
        if not 1 <= phase <= self.num_phases:
            raise ValueError(
                f"phase {phase} out of range [1, {self.num_phases}]"
            )

    def prefix_length_at(self, phase: int) -> int:
        """Digits that must agree within a height-``phase`` subtree."""
        self.check_phase(phase)
        return self.digits + 1 - phase

    def subtree_of(self, box: int, phase: int) -> SubtreeId:
        """The height-``phase`` subtree containing ``box``."""
        self.check_box(box)
        length = self.prefix_length_at(phase)
        return SubtreeId(length, box // (self.k ** (self.digits - length)))

    def child_subtrees(self, subtree: SubtreeId) -> tuple[SubtreeId, ...]:
        """The K height-(phase-1) children of a height-``phase`` subtree.

        For a height-1 subtree (a grid box) the children are the members
        themselves, not subtrees; calling this on one is an error.
        """
        length, value = subtree
        if length >= self.digits:
            raise ValueError("a grid box has member children, not subtrees")
        return tuple(
            SubtreeId(length + 1, value * self.k + digit)
            for digit in range(self.k)
        )

    def contains(self, subtree: SubtreeId, box: int) -> bool:
        """Whether ``box`` lies inside ``subtree``."""
        self.check_box(box)
        length, value = subtree
        return box // (self.k ** (self.digits - length)) == value

    def root(self) -> SubtreeId:
        return SubtreeId(0, 0)

    def __repr__(self) -> str:
        return (
            f"GridBoxHierarchy(N={self.group_size}, K={self.k}, "
            f"digits={self.digits}, boxes={self.num_boxes}, "
            f"phases={self.num_phases})"
        )


class GridAssignment:
    """Binding of a hierarchy to a membership via a hash function.

    Every member can compute any other member's grid box locally (the hash
    and ``N`` are well-known), which is what lets the protocol pick
    phase-appropriate gossipees without coordination.
    """

    def __init__(
        self,
        hierarchy: GridBoxHierarchy,
        member_ids: Iterable[int],
        hash_function: HashFunction,
    ):
        self.hierarchy = hierarchy
        self.hash_function = hash_function
        self._box_of: dict[int, int] = {}
        self._members_of_box: dict[int, list[int]] = {}
        for member_id in member_ids:
            box = hash_function.box_of(member_id, hierarchy.num_boxes)
            hierarchy.check_box(box)
            self._box_of[member_id] = box
            self._members_of_box.setdefault(box, []).append(member_id)
        self._member_ids = tuple(self._box_of)
        # Lazily built per-prefix-length groupings shared by all processes
        # (performance: avoids per-member subtree scans each round).
        self._prefix_groups: dict[int, dict[int, tuple[int, ...]]] = {}
        # Per prefix length, each member's index in its group's tuple.
        self._prefix_positions: dict[int, dict[int, int]] = {}
        # Shared expected-key frozensets (one per box / subtree instead of
        # one per member): every complete-view member of the same subtree
        # waits on the same key set each phase.
        self._box_key_sets: dict[int, frozenset[int]] = {}
        self._child_key_sets: dict[SubtreeId, frozenset[SubtreeId]] = {}
        # Hierarchy rank (see members_by_rank): members in (box address,
        # id) order, each member's position, and the first rank of every
        # box (one extra entry closes the last box).
        ordered: list[int] = []
        self._box_rank_start = [0]
        for box in range(hierarchy.num_boxes):
            ordered.extend(sorted(self._members_of_box.get(box, ())))
            self._box_rank_start.append(len(ordered))
        self._by_rank = tuple(ordered)
        self._rank_of = {member: rank for rank, member in enumerate(ordered)}

    @property
    def member_ids(self) -> tuple[int, ...]:
        return self._member_ids

    def box_of(self, member_id: int) -> int:
        """Grid box address of a member."""
        return self._box_of[member_id]

    def has_member(self, member_id: int) -> bool:
        """Whether this assignment covers ``member_id``."""
        return member_id in self._box_of

    def members_of_box(self, box: int) -> tuple[int, ...]:
        """All members hashed into ``box`` (possibly empty)."""
        return tuple(self._members_of_box.get(box, ()))

    def subtree_of(self, member_id: int, phase: int) -> SubtreeId:
        """The height-``phase`` subtree a member belongs to."""
        return self.hierarchy.subtree_of(self.box_of(member_id), phase)

    def peers_in_subtree(
        self, member_id: int, phase: int, view: Iterable[int]
    ) -> list[int]:
        """Members of ``view`` sharing the member's height-``phase`` subtree.

        Excludes the member itself — these are the valid gossipees for
        phase ``phase`` (paper steps I(a)/II(a)).
        """
        subtree = self.subtree_of(member_id, phase)
        hierarchy = self.hierarchy
        return [
            peer
            for peer in view
            if peer != member_id
            and peer in self._box_of
            and hierarchy.contains(subtree, self._box_of[peer])
        ]

    # -- hierarchy rank ------------------------------------------------------
    def members_by_rank(self) -> tuple[int, ...]:
        """Members in ``(box address, member id)`` order (shared tuple).

        A member's *rank* is its position in this order.  Subtree
        prefixes are the most significant address digits, so the boxes
        of any subtree are one contiguous address range and its members
        one contiguous rank range: coverage masks over ranks
        (:class:`~repro.core.intervals.IntervalMask`) hold a complete
        subtree as a single interval.  Computed once per assignment —
        every process of a run shares it, and runs share it through
        :func:`shared_dense_assignment`.
        """
        return self._by_rank

    def rank_of(self, member_id: int) -> int:
        """Position of a member in ``(box address, member id)`` order."""
        return self._rank_of[member_id]

    def member_at(self, rank: int) -> int:
        """Inverse of :meth:`rank_of` (``IndexError`` outside the ranks)."""
        if rank < 0:
            raise IndexError(f"rank {rank} is negative")
        return self._by_rank[rank]

    def subtree_rank_range(self, subtree: SubtreeId) -> range:
        """Ranks of the members inside ``subtree``: one contiguous range."""
        length, value = subtree
        width = self.hierarchy.k ** (self.hierarchy.digits - length)
        starts = self._box_rank_start
        return range(starts[value * width], starts[(value + 1) * width])

    def _groups_at(self, prefix_length: int) -> dict[int, tuple[int, ...]]:
        """Members grouped by their box's ``prefix_length``-digit prefix."""
        groups = self._prefix_groups.get(prefix_length)
        if groups is None:
            shift = self.hierarchy.k ** (self.hierarchy.digits - prefix_length)
            raw: dict[int, list[int]] = {}
            positions: dict[int, int] = {}
            for member_id, box in self._box_of.items():
                ids = raw.setdefault(box // shift, [])
                positions[member_id] = len(ids)
                ids.append(member_id)
            groups = {value: tuple(ids) for value, ids in raw.items()}
            self._prefix_groups[prefix_length] = groups
            self._prefix_positions[prefix_length] = positions
        return groups

    def members_in_subtree(self, subtree: SubtreeId) -> tuple[int, ...]:
        """All members whose grid box lies inside ``subtree``.

        The returned tuple is shared and must not be mutated; it is stable
        across calls (same object), so processes can cache positions in it.
        """
        length, value = subtree
        return self._groups_at(length).get(value, ())

    def pool_and_position(
        self, member_id: int, phase: int
    ) -> tuple[tuple[int, ...], int]:
        """:meth:`members_in_subtree` of the member's height-``phase``
        subtree, and the member's index in that (id-ordered) tuple."""
        length, value = self.subtree_of(member_id, phase)
        pool = self._groups_at(length)[value]
        return pool, self._prefix_positions[length][member_id]

    def occupied_children(self, subtree: SubtreeId) -> tuple[SubtreeId, ...]:
        """Child subtrees of ``subtree`` that contain at least one member."""
        groups = self._groups_at(subtree.prefix_length + 1)
        return tuple(
            child
            for child in self.hierarchy.child_subtrees(subtree)
            if child.prefix_value in groups
        )

    def box_key_set(self, box: int) -> frozenset[int]:
        """Frozenset of :meth:`members_of_box`, cached and shared.

        The phase-1 expected keys of every complete-view member of
        ``box`` — one frozenset per box instead of one per member.
        """
        keys = self._box_key_sets.get(box)
        if keys is None:
            keys = frozenset(self._members_of_box.get(box, ()))
            self._box_key_sets[box] = keys
        return keys

    def occupied_child_key_set(
        self, subtree: SubtreeId
    ) -> frozenset[SubtreeId]:
        """Frozenset of :meth:`occupied_children`, cached and shared.

        The phase-``i>1`` expected keys of every complete-view member of
        ``subtree`` (a member's own child subtree is occupied by the
        member itself, so it is always included).
        """
        keys = self._child_key_sets.get(subtree)
        if keys is None:
            keys = frozenset(self.occupied_children(subtree))
            self._child_key_sets[subtree] = keys
        return keys

    def occupied_child_keys(
        self, member_id: int, phase: int
    ) -> tuple[SubtreeId, ...] | tuple[int, ...]:
        """Keys of the child values needed to compose the phase aggregate.

        Phase 1: the member ids inside the member's own grid box (votes are
        the child values).  Phase i > 1: the child subtrees of the member's
        height-i subtree that contain at least one member (empty subtrees
        can never produce an aggregate and must not be waited on).
        """
        if phase == 1:
            return self.members_of_box(self.box_of(member_id))
        return self.occupied_children(self.subtree_of(member_id, phase))


#: Memoized dense assignments: repeated seeded runs of the same config
#: (``Sweep`` points, ``ParallelRunner`` chunks, benchmark repetitions)
#: rebuild an identical ``GridAssignment`` — N hash digests plus the
#: box groupings — every run.  The assignment depends only on
#: ``(group_size, k, membership, hash)``, never on the run seed, so one
#: cache entry serves every seed of a sweep point.  Entries are
#: immutable-by-convention (the protocol only reads them; the lazy
#: inner caches are append-only), so sharing across runs is safe.
_ASSIGNMENT_CACHE: OrderedDict[tuple, GridAssignment] = OrderedDict()

#: Bounded LRU: a sweep touches a handful of (N, K) points; at N = 8192
#: an assignment is a few MB, so keep the cache small.
_ASSIGNMENT_CACHE_LIMIT = 8


def shared_dense_assignment(
    group_size: int,
    k: int,
    n_members: int,
    hash_function: HashFunction,
) -> GridAssignment:
    """A (possibly cached) assignment over the dense ids ``range(n_members)``.

    Cache key: ``(group_size, k, n_members, hash_function.cache_key())``.
    Hash functions whose placement is not captured by a hashable value
    (positions tables, static maps) return ``None`` from ``cache_key()``
    and are never cached.  Only dense ``range(n_members)`` memberships
    are served — the runner's and the net nodes' setting; a caller with
    its own member ids (``aggregate_once``) builds its own assignment.
    """
    hash_key = hash_function.cache_key()
    if hash_key is None:
        return GridAssignment(
            GridBoxHierarchy(group_size, k), range(n_members), hash_function
        )
    key = (group_size, k, n_members, hash_key)
    assignment = _ASSIGNMENT_CACHE.get(key)
    if assignment is not None:
        _ASSIGNMENT_CACHE.move_to_end(key)
        return assignment
    assignment = GridAssignment(
        GridBoxHierarchy(group_size, k), range(n_members), hash_function
    )
    _ASSIGNMENT_CACHE[key] = assignment
    while len(_ASSIGNMENT_CACHE) > _ASSIGNMENT_CACHE_LIMIT:
        _ASSIGNMENT_CACHE.popitem(last=False)
    return assignment
