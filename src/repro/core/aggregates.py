"""Composable global aggregate functions.

The paper (Section 1) restricts attention to *composable* functions
``f``: if ``W1`` and ``W2`` are disjoint vote sets, then
``f(W1 ∪ W2) = g(f(W1), f(W2))`` for a known combiner ``g``, and the
byte-size of ``f``'s output is comparable to a single vote.  Average,
minimum and maximum are the paper's examples; we also provide sum, count,
boolean predicates, numerically-stable mean/variance and a fixed-bin
histogram (all constant-size).

Section 2 additionally imposes the **no-double-counting constraint**: no
member's vote may be included twice in any aggregate.  We enforce this
mechanically — every :class:`AggregateState` carries the coverage of its
payload as an :class:`~repro.core.intervals.IntervalMask` over vote
*slots*, and :meth:`AggregateFunction.merge` raises
:class:`DoubleCountError` on overlap.  A slot is whatever integer the
vote was lifted at: the hierarchical protocol lifts at the member's
hierarchy rank (:meth:`GridAssignment.rank_of
<repro.core.gridbox.GridAssignment.rank_of>`), which makes a complete
subtree one range and keeps the mask — like the payload — constant-size
up to the loss-induced exception count; baselines and hand-built states
lift at the member id.  The mask is part of the state a deployment
ships (:mod:`repro.net.codec` puts it on the wire); the simulated
network models still charge for the payload only (see
:meth:`AggregateState.wire_size`).

A fixed-width payload also has a *column form* (:attr:`AggregateFunction
.columns`): one numpy array per payload scalar, many states side by
side, combined by :meth:`AggregateFunction.combine_columns` with exactly
the scalar operations of the combiner (or accumulated by the one ufunc
per column in :attr:`AggregateFunction.folds`), so a column fold is
bit-identical to :meth:`AggregateFunction.merge_all`'s.  A
:class:`StateTable` keeps many states as such columns, their coverage
as rank intervals, and builds an :class:`AggregateState` only when one
is read; the array stepper composes in it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from typing import Any

import numpy as np

from repro.core.intervals import IntervalMask, _make

__all__ = [
    "DoubleCountError",
    "AggregateState",
    "AggregateFunction",
    "StateTable",
    "SumAggregate",
    "CountAggregate",
    "AverageAggregate",
    "MinAggregate",
    "MaxAggregate",
    "BoundsAggregate",
    "MeanVarianceAggregate",
    "HistogramAggregate",
    "TopKAggregate",
    "DistinctCountAggregate",
    "ProductAggregate",
    "AnyAggregate",
    "AllAggregate",
    "get_aggregate",
    "AGGREGATE_NAMES",
    "AGGREGATE_REGISTRY",
    "clear_mask_union_cache",
]


class DoubleCountError(Exception):
    """A merge would include some member's vote twice (Section 2 violation)."""


def clear_mask_union_cache() -> None:
    """No-op kept for one frozen importer.

    The mask-union memo this cleared is gone (interval masks merge in
    O(ranges)); ``benchmarks/layered/layers.py`` and ``micro.py`` still
    import the name and may not be edited in the PR that removed the
    memo.  Delete together with those imports.
    """


@dataclass(frozen=True, slots=True)
class AggregateState:
    """A partial evaluation of an aggregate over a set of member votes.

    ``payload`` is the constant-size algebraic value (e.g. ``(sum, count)``
    for the average); ``members`` is the set of vote slots it covers, an
    :class:`~repro.core.intervals.IntervalMask` (any iterable of ints is
    accepted and converted) — immutable so states can be shared freely
    between simulated processes.
    """

    payload: Any
    members: IntervalMask
    #: Memo of the default-size :meth:`wire_size`; not part of the value.
    _wire_size: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if type(self.members) is not IntervalMask:
            object.__setattr__(self, "members", IntervalMask(self.members))

    def covers(self) -> int:
        """Number of member votes included in this partial aggregate."""
        return self.members.count

    def wire_size(self) -> int:
        """Abstract byte-size of this state on the wire: 8 bytes per
        flattened payload number.

        Counts only the constant-size payload (flattened floats/ints), not
        the coverage mask — matching the paper's assumption that a
        composable function's output is about the size of a vote.

        Memoized on the instance: states are immutable and re-sent every
        gossip round, and the payload walk dominated the simulator's send
        path before caching.
        """
        if self._wire_size is None:
            object.__setattr__(self, "_wire_size", _size(self.payload))
        return self._wire_size


def _size(payload: Any) -> int:
    """:meth:`AggregateState.wire_size` of ``payload``."""
    return 8 * max(1, _flat_len(payload) if isinstance(payload, tuple) else 1)


def _flat_len(value: Any) -> int:
    if isinstance(value, tuple):
        return sum(_flat_len(item) for item in value)
    return 1


class AggregateFunction:
    """Base class for a composable aggregate.

    Subclasses implement the payload algebra (`_lift`, or `lift_payload`
    when the payload depends on the member id, `_combine`, `_finalize`);
    this base class wraps it with the coverage-mask tracking and the
    no-double-counting guard.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: The payload's column form: one numpy dtype per payload scalar, in
    #: payload order (a one-column payload is the bare scalar); empty
    #: for no fixed width — states then compose as objects.
    columns: tuple[str, ...] = ()

    #: One ufunc per column when the combiner is exactly that ufunc on
    #: each column: :meth:`fold_columns` then accumulates, and never
    #: calls :meth:`combine_columns`.
    folds: tuple[np.ufunc, ...] = ()

    # -- payload algebra (subclass responsibility) -----------------------
    def _lift(self, vote: float) -> Any:
        raise NotImplementedError

    def _combine(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _finalize(self, payload: Any) -> float:
        raise NotImplementedError

    # -- public API -------------------------------------------------------
    def lift_payload(self, member_id: int, vote: float) -> Any:
        """The payload of the single-vote set ``{member_id: vote}``."""
        return self._lift(vote)

    def lift(self, member_id: int, vote: float) -> AggregateState:
        """The aggregate of the single-vote set ``{member_id: vote}``."""
        return AggregateState(
            self.lift_payload(member_id, vote), IntervalMask.single(member_id)
        )

    def merge(self, a: AggregateState, b: AggregateState) -> AggregateState:
        """Combine two partial aggregates over *disjoint* vote sets.

        This is the paper's combiner ``g``.  Raises
        :class:`DoubleCountError` if the vote sets overlap.
        """
        return self.merge_all((a, b))

    def merge_all(self, states: Iterable[AggregateState]) -> AggregateState:
        """Fold the combiner over a non-empty series of states, in order.

        One fold for every caller: the payloads combine pairwise left to
        right, the masks union the same way, and the first pair that
        shares a slot raises :class:`DoubleCountError`.  ``states`` is
        consumed one at a time (:meth:`over` streams a whole vote map
        through without holding it).  A single state is returned as it
        is.
        """
        iterator = iter(states)
        first = next(iterator, None)
        if first is None:
            raise ValueError(f"{self.name}: cannot merge zero states")
        combine = self._combine
        payload = first.payload
        members = first.members
        merged = None
        for state in iterator:
            merged = members.union_disjoint(state.members)
            if merged is None:
                twice = list(islice(members & state.members, 5))
                raise DoubleCountError(
                    f"{self.name}: members {twice} would be counted twice"
                )
            payload = combine(payload, state.payload)
            members = merged
        if merged is None:
            return first
        return AggregateState(payload, members)

    def finalize(self, state: AggregateState) -> float:
        """Extract the function value from a partial aggregate."""
        return self._finalize(state.payload)

    # -- column form (aggregates that declare ``columns``) -----------------
    def combine_columns(self, a: list, b: list) -> list:
        """:meth:`_combine` on columns: ``a[i]`` and ``b[i]`` hold the
        ``i``-th payload scalar of many states.  The default runs
        :meth:`_combine` itself, whose arithmetic is elementwise on
        arrays; a combiner that compares overrides this."""
        if len(a) == 1:
            return [self._combine(a[0], b[0])]
        return list(self._combine(tuple(a), tuple(b)))

    def fold_columns(self, table: list, ids, lengths) -> list:
        """Fold row ``i``'s payloads — ids ``ids[i, :lengths[i]]`` into
        the ``table`` columns, every length at least 1 — left to right,
        as :meth:`merge_all` does: step ``j`` combines the running value
        of every row longer than ``j`` with its ``j``-th payload (or,
        with :attr:`folds`, one ``accumulate`` per column — a strict left
        fold too).  No reassociation, so the bits are the scalar fold's."""
        with np.errstate(all="ignore"):  # float arithmetic never warns
            if self.folds:
                rows = np.arange(len(ids))
                return [
                    fold.accumulate(column[ids], axis=1)[rows, lengths - 1]
                    for fold, column in zip(self.folds, table)
                ]
            folded = [column[ids[:, 0]] for column in table]
            for step in range(1, int(lengths.max(initial=1))):
                rows = np.flatnonzero(lengths > step)
                values = self.combine_columns(
                    [column[rows] for column in folded],
                    [column[ids[rows, step]] for column in table],
                )
                for column, value in zip(folded, values):
                    column[rows] = value
        return folded

    def over(self, votes: dict[int, float]) -> AggregateState:
        """Directly aggregate a vote map (reference/oracle evaluation)."""
        return self.merge_all(
            self.lift(member, vote) for member, vote in votes.items()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SumAggregate(AggregateFunction):
    """Sum of votes."""

    name = "sum"
    columns = ("f8",)
    folds = (np.add,)

    def _lift(self, vote):
        return float(vote)

    def _combine(self, a, b):
        return a + b

    def _finalize(self, payload):
        return payload


class CountAggregate(AggregateFunction):
    """Number of votes (member count — e.g. live-sensor census)."""

    name = "count"
    columns = ("i8",)
    folds = (np.add,)

    def _lift(self, vote):
        return 1

    def _combine(self, a, b):
        return a + b

    def _finalize(self, payload):
        return float(payload)


class AverageAggregate(AggregateFunction):
    """Arithmetic mean; payload is ``(sum, count)``."""

    name = "average"
    columns = ("f8", "i8")
    folds = (np.add, np.add)

    def _lift(self, vote):
        return (float(vote), 1)

    def _combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _finalize(self, payload):
        total, count = payload
        return total / count


class MinAggregate(AggregateFunction):
    """Minimum vote."""

    name = "min"
    columns = ("f8",)

    def _lift(self, vote):
        return float(vote)

    def _combine(self, a, b):
        return min(a, b)

    def combine_columns(self, a, b):
        return [np.where(b[0] < a[0], b[0], a[0])]  # min(a, b), NaN too

    def _finalize(self, payload):
        return payload


class MaxAggregate(AggregateFunction):
    """Maximum vote."""

    name = "max"
    columns = ("f8",)

    def _lift(self, vote):
        return float(vote)

    def _combine(self, a, b):
        return max(a, b)

    def combine_columns(self, a, b):
        return [np.where(b[0] > a[0], b[0], a[0])]  # max(a, b), NaN too

    def _finalize(self, payload):
        return payload


class BoundsAggregate(AggregateFunction):
    """(min, max) envelope; finalizes to the range width."""

    name = "bounds"
    columns = ("f8", "f8")

    def _lift(self, vote):
        vote = float(vote)
        return (vote, vote)

    def _combine(self, a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def combine_columns(self, a, b):
        return [
            np.where(b[0] < a[0], b[0], a[0]),
            np.where(b[1] > a[1], b[1], a[1]),
        ]

    def _finalize(self, payload):
        low, high = payload
        return high - low

    @staticmethod
    def bounds(state: AggregateState) -> tuple[float, float]:
        """The (min, max) pair itself."""
        return state.payload


class MeanVarianceAggregate(AggregateFunction):
    """Mean and population variance via the parallel Welford/Chan update.

    Payload is ``(count, mean, M2)``; finalizes to the variance.  Merging is
    numerically stable even for badly-conditioned vote distributions, which
    matters when thousands of partial aggregates are folded in arbitrary
    gossip order.
    """

    name = "mean_variance"
    columns = ("i8", "f8", "f8")

    def _lift(self, vote):
        return (1, float(vote), 0.0)

    def _combine(self, a, b):
        n_a, mean_a, m2_a = a
        n_b, mean_b, m2_b = b
        n = n_a + n_b
        delta = mean_b - mean_a
        mean = mean_a + delta * n_b / n
        m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
        return (n, mean, m2)

    def _finalize(self, payload):
        n, __, m2 = payload
        return m2 / n

    @staticmethod
    def mean(state: AggregateState) -> float:
        return state.payload[1]

    @staticmethod
    def variance(state: AggregateState) -> float:
        n, __, m2 = state.payload
        return m2 / n


class HistogramAggregate(AggregateFunction):
    """Fixed-bin histogram over ``[low, high)`` — constant size for fixed bins.

    Votes outside the range clamp to the edge bins.  Finalizes to the index
    of the fullest bin (the modal bin); the full bin-count tuple is
    available via :meth:`counts`.
    """

    name = "histogram"

    def __init__(self, low: float, high: float, bins: int = 8):
        if bins < 1:
            raise ValueError("need at least one bin")
        if not high > low:
            raise ValueError("need high > low")
        self.low = float(low)
        self.high = float(high)
        self.bins = int(bins)

    def _bin_of(self, vote: float) -> int:
        span = (self.high - self.low) / self.bins
        index = int((float(vote) - self.low) / span)
        return min(max(index, 0), self.bins - 1)

    def _lift(self, vote):
        counts = [0] * self.bins
        counts[self._bin_of(vote)] = 1
        return tuple(counts)

    def _combine(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _finalize(self, payload):
        return float(max(range(self.bins), key=payload.__getitem__))

    @staticmethod
    def counts(state: AggregateState) -> tuple[int, ...]:
        return state.payload

    def __repr__(self) -> str:
        return (
            f"HistogramAggregate(low={self.low}, high={self.high}, "
            f"bins={self.bins})"
        )


class DistinctCountAggregate(AggregateFunction):
    """Flajolet-Martin distinct-member estimate (constant-size sketch).

    Payload is a small tuple of bitmaps (one per hash bucket); lifting a
    member sets the bit at the position of the lowest set bit of the
    member id's salted hash, merging ORs the bitmaps, and finalization
    applies the classic FM estimator averaged over buckets.

    Unlike the exact aggregates, the *merge is idempotent*: including the
    same member's sketch twice cannot change the estimate, so this
    aggregate would be correct even without the paper's no-double-
    counting constraint — the sketch family Astrolabe later leaned on.
    (The inherited merge still enforces disjointness, because the
    protocol guarantees it anyway.)

    Accuracy is the usual FM ~1/sqrt(buckets) ballpark: with the default
    8 buckets expect estimates within roughly +-35% — a census, not an
    audit.
    """

    name = "distinct_count"

    #: FM bias correction constant.
    _PHI = 0.77351

    def __init__(self, buckets: int = 8, salt: int = 0):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.buckets = int(buckets)
        self.salt = int(salt)

    def _rho(self, member_id: int, bucket: int) -> int:
        import hashlib

        digest = hashlib.sha256(
            f"{self.salt}:{bucket}:{member_id}".encode()
        ).digest()
        value = int.from_bytes(digest[:8], "big") | (1 << 63)
        return (value & -value).bit_length() - 1  # lowest set bit index

    def lift_payload(self, member_id: int, vote: float) -> Any:
        # Sketches the member id, not the vote.
        return tuple(
            1 << self._rho(member_id, bucket)
            for bucket in range(self.buckets)
        )

    def _combine(self, a, b):
        return tuple(x | y for x, y in zip(a, b))

    def _finalize(self, payload):
        total = 0.0
        for bitmap in payload:
            position = 0
            while bitmap & (1 << position):
                position += 1
            total += position
        return (2 ** (total / len(payload))) / self._PHI

    def __repr__(self) -> str:
        return (
            f"DistinctCountAggregate(buckets={self.buckets}, "
            f"salt={self.salt})"
        )


class TopKAggregate(AggregateFunction):
    """The ``k`` largest votes together with their owners' identifiers.

    Payload is a tuple of at most ``k`` ``(vote, member_id)`` pairs in
    descending vote order — constant size for fixed ``k``, so it remains
    composable in the paper's sense.  Useful for queries like "which
    sensors are hottest?" that pure scalar aggregates cannot answer.
    Finalizes to the k-th largest vote (the selection threshold); the
    full leaderboard is available via :meth:`leaders`.

    Note the coverage mask still tracks *all* covered votes (completeness /
    double-count accounting), while the payload keeps only the top k.
    """

    name = "top_k"

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)

    def lift_payload(self, member_id: int, vote: float) -> Any:
        return ((float(vote), int(member_id)),)

    def _combine(self, a, b):
        merged = sorted((*a, *b), key=lambda pair: (-pair[0], pair[1]))
        return tuple(merged[: self.k])

    def _finalize(self, payload):
        return payload[-1][0]

    @staticmethod
    def leaders(state: AggregateState) -> tuple[tuple[float, int], ...]:
        """The ``(vote, member_id)`` leaderboard, best first."""
        return state.payload

    def __repr__(self) -> str:
        return f"TopKAggregate(k={self.k})"


class ProductAggregate(AggregateFunction):
    """Several composable aggregates evaluated in one protocol run.

    The product of composable functions is composable: the payload is the
    tuple of component payloads and the combiner applies component-wise.
    One gossip run can therefore answer "average *and* min *and* max *and*
    hottest-3" simultaneously at the cost of a (still constant) message
    size equal to the sum of the parts — far cheaper than one run per
    query.

    Votes are per-component: a member's vote is a sequence with one entry
    per component function (often the same reading repeated, but e.g. a
    histogram component may want a different sensor channel than the
    average component).  ``finalize`` returns the tuple of component
    results; ``finalize_each`` names them.
    """

    name = "product"

    def __init__(self, functions: "list[AggregateFunction]"):
        if not functions:
            raise ValueError("need at least one component function")
        self.functions = list(functions)

    def lift_payload(self, member_id: int, vote) -> Any:
        votes = list(vote) if isinstance(vote, (tuple, list)) else [
            vote
        ] * len(self.functions)
        if len(votes) != len(self.functions):
            raise ValueError(
                f"vote has {len(votes)} components, product has "
                f"{len(self.functions)}"
            )
        return tuple(
            function.lift_payload(member_id, component)
            for function, component in zip(self.functions, votes)
        )

    def _combine(self, a, b):
        return tuple(
            function._combine(pa, pb)
            for function, pa, pb in zip(self.functions, a, b)
        )

    def _finalize(self, payload):
        return tuple(
            function._finalize(part)
            for function, part in zip(self.functions, payload)
        )

    def finalize_each(self, state: AggregateState) -> dict[str, float]:
        """Component results keyed by the component functions' names."""
        results = self._finalize(state.payload)
        return {
            function.name: value
            for function, value in zip(self.functions, results)
        }

    def __repr__(self) -> str:
        names = ", ".join(f.name for f in self.functions)
        return f"ProductAggregate([{names}])"


class AnyAggregate(AggregateFunction):
    """Logical OR over truthy votes (e.g. "any sensor over threshold?")."""

    name = "any"
    columns = ("?",)
    folds = (np.bitwise_or,)

    def _lift(self, vote):
        return bool(vote)

    def _combine(self, a, b):
        return a or b

    def _finalize(self, payload):
        return 1.0 if payload else 0.0


class AllAggregate(AggregateFunction):
    """Logical AND over truthy votes."""

    name = "all"
    columns = ("?",)
    folds = (np.bitwise_and,)

    def _lift(self, vote):
        return bool(vote)

    def _combine(self, a, b):
        return a and b

    def _finalize(self, payload):
        return 1.0 if payload else 0.0


AGGREGATE_REGISTRY: dict[str, type[AggregateFunction]] = {
    cls.name: cls
    for cls in (
        SumAggregate,
        CountAggregate,
        AverageAggregate,
        MinAggregate,
        MaxAggregate,
        BoundsAggregate,
        MeanVarianceAggregate,
        AnyAggregate,
        AllAggregate,
    )
}

#: Every aggregate :func:`get_aggregate` builds from its name alone
#: (``histogram`` needs its range, so it is not one of them).
AGGREGATE_NAMES: tuple[str, ...] = tuple(sorted(
    (*AGGREGATE_REGISTRY, TopKAggregate.name, DistinctCountAggregate.name)
))


def get_aggregate(name: str, **kwargs) -> AggregateFunction:
    """Instantiate a registered aggregate by name (CLI convenience)."""
    if name == HistogramAggregate.name:
        return HistogramAggregate(**kwargs)
    if name == TopKAggregate.name:
        return TopKAggregate(**kwargs)
    if name == DistinctCountAggregate.name:
        return DistinctCountAggregate(**kwargs)
    try:
        cls = AGGREGATE_REGISTRY[name]
    except KeyError:
        known = ", ".join(AGGREGATE_NAMES)
        raise KeyError(f"unknown aggregate {name!r}; known: {known}") from None
    return cls(**kwargs)


def _room(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with room for at least ``rows`` rows: at least doubled,
    the new rows zero (pages never written take no memory)."""
    if len(array) >= rows:
        return array
    grown = np.zeros((max(rows, 2 * len(array)), *array.shape[1:]),
                     dtype=array.dtype)
    grown[:len(array)] = array
    return grown


def _segments(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indexes ``first[i]`` .. ``first[i] + length[i] - 1`` of every
    ``i``, concatenated in order."""
    offsets = np.cumsum(length) - length
    return np.arange(np.sum(length)) + np.repeat(first - offsets, length)


class StateTable:
    """Many aggregate states as columns; an id names one (0: no state).

    Per id: the coverage ``count``, the wire ``size``
    (:meth:`AggregateState.wire_size`), the payload — one ``payload``
    column per scalar of a fixed-width aggregate, else one object column
    — and the coverage as ``spans`` closed ranges from row ``first`` of
    ``ranges`` (columns lo and hi, ascending, adjacent ones merged; ranks
    and ids below 2**31), which ids of equal coverage may share.
    ``table[sid]`` builds that id's :class:`AggregateState`; nothing
    else does.  Ids :meth:`sweep` frees are handed out again.
    """

    def __init__(self, function: AggregateFunction | None):
        self.function = function
        capacity = 1024  # rows; every column grows on demand (_room)
        self.fixed = function is not None and bool(function.columns)
        self.count, self.size = np.zeros((2, capacity), dtype=np.int32)
        self.first, self.spans = np.zeros((2, capacity), dtype=np.int64)
        self.payload = [
            np.zeros(capacity, dtype=dtype)
            for dtype in (function.columns if self.fixed else (object,))
        ]
        self.ranges = np.zeros((capacity, 2), dtype=np.int32)
        self._ids = 1  # ids handed out so far, 0 included
        self._used = 0  # rows of ``ranges`` in use
        self._free = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self._ids

    def __getitem__(self, sid) -> AggregateState:
        first = self.first.item(sid)
        bounds = self.ranges[first:first + self.spans.item(sid)].ravel()
        values = tuple(column.item(sid) for column in self.payload)
        return AggregateState(
            values if len(values) > 1 else values[0],
            _make(IntervalMask, tuple(bounds.tolist()), self.count.item(sid)),
        )

    def payloads(self, sids) -> list:
        """The payloads of ``sids``, as Python values."""
        columns = [column[sids].tolist() for column in self.payload]
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def finalize(self, sids) -> list[float]:
        """:meth:`AggregateFunction.finalize` of every id in ``sids``."""
        return list(map(self.function._finalize, self.payloads(sids)))

    def intervals(self, sids) -> tuple:
        """The coverage ranges of ``sids``, concatenated: per range the
        position of its id in ``sids``, lo and hi."""
        spans = self.spans[sids]
        lo, hi = self.ranges[_segments(self.first[sids], spans)].T
        return np.repeat(np.arange(len(spans)), spans), lo, hi

    # -- adding states ----------------------------------------------------
    def add(self, counts, lo, hi, spans, payloads=None, columns=None,
            first=None) -> np.ndarray:
        """Ids for new states: coverage counts, ``spans`` ranges each —
        from row ``first`` of ``lo``/``hi`` (default: concatenated in
        order) — and the payloads: a list, or the payload ``columns``."""
        reused = self._free[max(0, len(self._free) - len(spans)):]
        self._free = self._free[:len(self._free) - len(reused)]
        fresh = np.arange(self._ids, self._ids + len(spans) - len(reused))
        self._ids += len(fresh)
        sids = np.concatenate((reused, fresh))
        if self._ids > len(self.count):  # every id column grows together
            for name in ("count", "size", "first", "spans"):
                setattr(self, name, _room(getattr(self, name), self._ids))
            self.payload = [_room(column, self._ids)
                            for column in self.payload]
        self.count[sids] = counts
        self.spans[sids] = spans
        self.first[sids] = self._used + (
            np.cumsum(spans) - spans if first is None else first
        )
        used, self._used = self._used, self._used + len(lo)
        self.ranges = _room(self.ranges, self._used)
        self.ranges[used:self._used, 0] = lo
        self.ranges[used:self._used, 1] = hi
        if columns is None:
            columns = [np.fromiter(values, dtype=column.dtype, count=len(sids))
                       for column, values in zip(self.payload, (
                           zip(*payloads) if len(self.payload) > 1
                           else (payloads,)))]
        for column, values in zip(self.payload, columns):
            column[sids] = values
        self.size[sids] = (8 * len(self.payload) if self.fixed
                           else list(map(_size, payloads)))
        return sids

    def extend(self, states) -> np.ndarray:
        """Ids for ``AggregateState`` objects, one new id each."""
        masks = [state.members for state in states]
        bounds = np.array([b for mask in masks for b in mask.bounds],
                          dtype=np.int32)
        return self.add(
            [mask.count for mask in masks], bounds[0::2], bounds[1::2],
            [len(mask.bounds) // 2 for mask in masks],
            [state.payload for state in states],
        )

    def compose(self, order: np.ndarray, held: np.ndarray,
                slots: np.ndarray) -> np.ndarray:
        """Ids for ``len(held)`` compositions at once.  Row ``i`` folds
        the payloads of ids ``order[i, :held[i]]`` left to right, as
        :meth:`AggregateFunction.merge_all` does, and joins the coverage
        of the nonzero ids of ``slots[i]`` — disjoint and ascending (the
        caller's guarantee; nothing tests overlap) — merging adjacent
        ranges."""
        if len(held) > 1024:  # a block of rows at a time: small temporaries
            return np.concatenate([self.compose(
                order[at:at + 1024], held[at:at + 1024], slots[at:at + 1024]
            ) for at in range(0, len(held), 1024)])
        row, column = np.nonzero(slots)
        owner, lo, hi = self.intervals(slots[row, column])
        owner = row[owner]
        # A range that continues its row's previous one extends it.
        begins = np.empty(len(lo), dtype=bool)
        begins[:1] = True
        np.not_equal(owner[1:], owner[:-1], out=begins[1:])
        begins[1:] |= lo[1:] != hi[:-1] + 1
        starts = np.flatnonzero(begins)
        ends = np.concatenate((starts[1:], [len(lo)])) - 1
        owner, lo, hi = owner[starts], lo[starts], hi[ends]
        spans = np.bincount(owner, minlength=len(held))
        # Rows composing equal coverage share one copy of its ranges: a
        # round's finalizes mostly miss the same crashed votes.
        at = np.arange(len(lo)) - np.repeat(np.cumsum(spans) - spans, spans)
        padded = np.full((len(held), spans.max()), -1)
        padded[owner, at] = lo.astype(np.int64) << 32 | hi
        __, first, back = np.unique(  # a row's bytes, as one key
            padded.view(f"V{8 * padded.shape[1]}").ravel(),
            return_index=True, return_inverse=True,
        )
        kept = np.zeros_like(spans)
        kept[first] = spans[first]
        payloads = columns = None
        if self.fixed:
            columns = self.function.fold_columns(self.payload, order, held)
        else:
            payloads = [
                reduce(self.function._combine, self.payload[0][ids[:length]])
                for ids, length in zip(order, held.tolist())
            ]
        return self.add(
            self.count[slots].sum(axis=1), lo[kept[owner] > 0],
            hi[kept[owner] > 0], spans, payloads, columns,
            (np.cumsum(kept) - kept)[first[back]],
        )

    def sweep(self, live: np.ndarray) -> None:
        """Free the ids ``live`` (a mask over ids) leaves out, and pack
        the ranges of the others."""
        live[0] = True
        kept = np.flatnonzero(live)
        # Ids sharing their ranges keep sharing one copy.
        first, back = np.unique(self.first[kept], return_inverse=True)
        spans = np.zeros(len(first), dtype=np.int64)
        np.maximum.at(spans, back, self.spans[kept])
        index = _segments(first, spans)
        self.ranges[:len(index)] = self.ranges[index]
        self._used = len(index)
        self.first[kept] = (np.cumsum(spans) - spans)[back]
        self._free = np.flatnonzero(~live)
        self.count[self._free] = self.spans[self._free] = 0
        if not self.fixed:
            self.payload[0][self._free] = None
