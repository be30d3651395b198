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
the scalar operations of the combiner, so a column fold is bit-identical
to :meth:`AggregateFunction.merge_all`'s.  The array stepper composes
that way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

import numpy as np

from repro.core.intervals import IntervalMask

__all__ = [
    "DoubleCountError",
    "AggregateState",
    "AggregateFunction",
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
        if self._wire_size is not None:
            return self._wire_size
        payload = self.payload
        count = _flat_len(payload) if isinstance(payload, tuple) else 1
        size = 8 * max(1, count)
        object.__setattr__(self, "_wire_size", size)
        return size


def _flat_len(value: Any) -> int:
    if isinstance(value, tuple):
        return sum(_flat_len(item) for item in value)
    return 1


class AggregateFunction:
    """Base class for a composable aggregate.

    Subclasses implement the payload algebra (`_lift`, `_combine`,
    `_finalize`); this base class wraps it with the coverage-mask tracking
    and the no-double-counting guard.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: The payload's column form: one numpy dtype per payload scalar, in
    #: payload order (a one-column payload is the bare scalar); empty
    #: for no fixed width — states then compose as objects.
    columns: tuple[str, ...] = ()

    # -- payload algebra (subclass responsibility) -----------------------
    def _lift(self, vote: float) -> Any:
        raise NotImplementedError

    def _combine(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def _finalize(self, payload: Any) -> float:
        raise NotImplementedError

    # -- public API -------------------------------------------------------
    def lift(self, member_id: int, vote: float) -> AggregateState:
        """The aggregate of the single-vote set ``{member_id: vote}``."""
        return AggregateState(self._lift(vote), IntervalMask.single(member_id))

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

    def payload_columns(self, payloads: list) -> list:
        """The payloads' scalars, one sequence per column."""
        return [payloads] if len(self.columns) == 1 else list(zip(*payloads))

    def column_payloads(self, columns: list) -> list:
        """Column rows back as payloads of Python scalars."""
        if len(columns) == 1:
            return columns[0].tolist()
        return list(zip(*(column.tolist() for column in columns)))

    def fold_columns(self, table: list, ids, lengths) -> list:
        """Fold row ``i``'s payloads — ids ``ids[i, :lengths[i]]`` into
        the ``table`` columns — left to right, as :meth:`merge_all` does:
        step ``j`` combines the running value of every row longer than
        ``j`` with its ``j``-th payload.  No reassociation, so the bits
        are the scalar fold's."""
        folded = [column[ids[:, 0]] for column in table]
        with np.errstate(all="ignore"):  # float arithmetic never warns
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

    def _lift(self, vote):
        raise NotImplementedError  # sketches the member id, not the vote

    def lift(self, member_id: int, vote: float) -> AggregateState:
        bitmaps = tuple(
            1 << self._rho(member_id, bucket)
            for bucket in range(self.buckets)
        )
        return AggregateState(bitmaps, IntervalMask.single(member_id))

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

    def _lift(self, vote):
        # member id is attached in lift(); _lift only sees the vote, so
        # the public lift() is overridden below instead.
        raise NotImplementedError

    def lift(self, member_id: int, vote: float) -> AggregateState:
        return AggregateState(
            ((float(vote), int(member_id)),), IntervalMask.single(member_id)
        )

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

    def _lift(self, vote):
        raise NotImplementedError  # lift() is overridden below

    def lift(self, member_id: int, vote) -> AggregateState:
        votes = list(vote) if isinstance(vote, (tuple, list)) else [
            vote
        ] * len(self.functions)
        if len(votes) != len(self.functions):
            raise ValueError(
                f"vote has {len(votes)} components, product has "
                f"{len(self.functions)}"
            )
        payload = tuple(
            function.lift(member_id, component).payload
            for function, component in zip(self.functions, votes)
        )
        return AggregateState(payload, IntervalMask.single(member_id))

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

    def _lift(self, vote):
        return bool(vote)

    def _combine(self, a, b):
        return a or b

    def combine_columns(self, a, b):
        return [a[0] | b[0]]

    def _finalize(self, payload):
        return 1.0 if payload else 0.0


class AllAggregate(AggregateFunction):
    """Logical AND over truthy votes."""

    name = "all"
    columns = ("?",)

    def _lift(self, vote):
        return bool(vote)

    def _combine(self, a, b):
        return a and b

    def combine_columns(self, a, b):
        return [a[0] & b[0]]

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
