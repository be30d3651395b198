"""Wire message payloads shared by the aggregation protocols.

Every payload knows its abstract ``wire_size`` so the network models can
enforce the paper's constant-message-size constraint (Section 2).  Sizes
are in abstract "vote-sized units" scaled by 8 bytes per scalar: an id or
phase number costs :data:`ID_SIZE` and an aggregate payload costs its
flattened scalar count — the coverage mask inside
:class:`~repro.core.aggregates.AggregateState` (a few interval bounds)
is *not* charged here; the real wire carries and counts it
(:mod:`repro.net.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.aggregates import AggregateState

__all__ = [
    "ID_SIZE",
    "GossipValue",
    "GossipBatch",
    "VoteReport",
    "AggregateReport",
    "Dissemination",
]

#: Abstract size of one identifier / integer field on the wire.
ID_SIZE = 8


@dataclass(frozen=True, slots=True)
class GossipValue:
    """One gossiped value (paper steps I(a)/II(a)).

    ``phase`` is the sender's phase; ``key`` identifies the vote owner
    (phase 1: a member id) or the child subtree (phase > 1: a
    :class:`~repro.core.gridbox.SubtreeId`); ``state`` is the partial
    aggregate (a single lifted vote in phase 1).
    """

    phase: int
    key: Any
    state: AggregateState

    def wire_size(self) -> int:
        return 2 * ID_SIZE + self.state.wire_size()


@dataclass(frozen=True, slots=True)
class GossipBatch:
    """All values the sender holds for its current phase.

    In phases ``i > 1`` a member holds at most ``K`` child aggregates, so
    the batch stays constant-size; in phase 1 it holds the box's votes —
    Binomial(N, K/N) many, i.e. expected ``K`` with a light tail.  This is
    the default gossip payload (the paper's simulator magnitudes are only
    reachable with state exchange); the strict one-value-per-message
    protocol text is available via ``GossipParams(batch_values=False)``.
    """

    phase: int
    entries: tuple[tuple[Any, AggregateState], ...]
    #: True for the answer half of a push-pull exchange (never re-answered).
    reply: bool = False
    #: Memo of :meth:`wire_size`; not part of the value.
    _wire_size: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def wire_size(self) -> int:
        # Memoized: one batch object is sent to every gossipee of a
        # round (and its entry states persist across rounds), so the
        # entry walk would otherwise repeat per send.
        cached = self._wire_size
        if cached is None:
            cached = ID_SIZE + sum(
                ID_SIZE + state.wire_size() for __, state in self.entries
            )
            object.__setattr__(self, "_wire_size", cached)
        return cached


@dataclass(frozen=True)
class VoteReport:
    """A raw vote sent to a collector (flooding / centralized baselines)."""

    member_id: int
    state: AggregateState

    def wire_size(self) -> int:
        return ID_SIZE + self.state.wire_size()


@dataclass(frozen=True)
class AggregateReport:
    """A subtree aggregate reported upward (leader-election baseline)."""

    subtree_key: Any
    state: AggregateState

    def wire_size(self) -> int:
        return ID_SIZE + self.state.wire_size()


@dataclass(frozen=True)
class Dissemination:
    """The final global estimate pushed back out to the group."""

    state: AggregateState

    def wire_size(self) -> int:
        return self.state.wire_size()
