"""Protocol-phase observation points: typed events and the sink interface.

The paper's claims are *per-phase* claims — phase ``i`` lasts a bounded
number of rounds, members bump up early once all ``K`` sibling child
aggregates are known, and Theorem 1's ``1 - 1/N`` completeness bound
depends on every phase succeeding.  The engine-level
:class:`~repro.sim.trace.Tracer` sees sends and crashes but not *why* a
member advanced; this module defines the protocol-level vocabulary:

* :class:`PhaseEvent` — one typed protocol event (see
  :data:`PHASE_EVENT_KINDS`);
* :class:`PhaseBlock` — one round's events for one sink, as columns
  (kind code, member, phase, subtree value, coverage); the array stepper
  hands a sink one block per round, and only :meth:`PhaseBlock.events`
  builds :class:`PhaseEvent` objects from it;
* :class:`PhaseSink` — the minimal interface a protocol process emits
  through.  ``emit_block`` defaults to emitting the block's events one
  by one, so an emit-only sink sees the per-event stream unchanged; a
  counting sink overrides it and never builds an event.  The real
  collector lives in :mod:`repro.obs`
  (:class:`~repro.obs.phase.PhaseTrace`); this module deliberately knows
  nothing about it, so ``repro.core`` never imports ``repro.obs`` and the
  observability layer stays a pure consumer (checked in CI).

Emission is opt-in (``phase_sink=None`` means zero work per event) and
draws no randomness, so a traced run is byte-identical to an untraced
one — the golden test pins that.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PHASE_EVENT_KINDS",
    "PhaseBlock",
    "PhaseEvent",
    "PhaseSink",
    "format_subtree",
    "format_key",
]

#: Event kinds emitted by :class:`~repro.core.hierarchical_gossip
#: .HierarchicalGossipProcess`:
#:
#: * ``phase_enter`` — the member started working on ``phase``.
#: * ``representative_elected`` — the member was hash-selected to gossip
#:   actively in ``phase`` (only emitted when
#:   ``representative_fraction < 1`` makes the role selective).
#: * ``subtree_complete`` — at bump-up time the member knew every
#:   occupied child value of its phase subtree (nothing missing).
#: * ``bump_up_early`` — step II(b): the member advanced before the
#:   phase timeout because all sibling values were known.
#: * ``bump_up_timeout`` — the phase timed out; ``missing`` lists the
#:   expected keys the member never received.
#: * ``finalize`` — the member composed the final phase and terminated;
#:   ``coverage`` is its self-assessed coverage fraction.
PHASE_EVENT_KINDS = (
    "phase_enter",
    "representative_elected",
    "subtree_complete",
    "bump_up_early",
    "bump_up_timeout",
    "finalize",
)
#: Kind codes of :class:`PhaseBlock` columns (indices into the kinds).
(PHASE_ENTER, REPRESENTATIVE_ELECTED, SUBTREE_COMPLETE, BUMP_UP_EARLY,
 BUMP_UP_TIMEOUT, FINALIZE) = range(len(PHASE_EVENT_KINDS))


@dataclass(frozen=True)
class PhaseEvent:
    """One protocol-level event, located in protocol space-time."""

    kind: str
    member: int
    round: int
    phase: int
    #: Formatted id of the subtree the phase operates on (see
    #: :func:`format_subtree`); ``None`` for protocols without one.
    subtree: str | None = None
    #: ``bump_up_timeout`` only: the expected keys never received,
    #: formatted with :func:`format_key` and sorted.
    missing: tuple[str, ...] = ()
    #: ``finalize`` only: self-assessed coverage fraction of the result.
    coverage: float | None = None


@dataclass(frozen=True, slots=True, eq=False)
class PhaseBlock:
    """One round's phase events for one sink, as columns.

    Event ``i`` is ``PHASE_EVENT_KINDS[kinds[i]]`` of ``members[i]`` in
    ``phases[i]``, on the subtree with value ``subtrees[i]`` of that
    phase (:meth:`~repro.core.gridbox.GridAssignment.subtree_of`'s
    ``prefix_value``); ``coverage[i]`` is a finalize's coverage (NaN
    otherwise) and ``missing[i]`` indexes the missing-key sets of
    ``bump_up_timeout`` events (-1 for none).  Events are in stream
    order: by member row, each row's in cascade order.  ``label(phase,
    value)`` formats a subtree and ``resolve(index)`` a missing set —
    both only when :meth:`events` builds an event that needs one.
    """

    round: int
    kinds: np.ndarray
    members: np.ndarray
    phases: np.ndarray
    subtrees: np.ndarray
    coverage: np.ndarray
    missing: np.ndarray
    label: Callable[[int, int], str]
    resolve: Callable[[int], tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.kinds)

    def events(self) -> Iterator[PhaseEvent]:
        """The block's events, built one at a time in stream order."""
        label, resolve = self.label, self.resolve
        for kind, member, phase, value, coverage, missing in zip(
            self.kinds.tolist(), self.members.tolist(),
            self.phases.tolist(), self.subtrees.tolist(),
            self.coverage.tolist(), self.missing.tolist(),
        ):
            yield PhaseEvent(
                PHASE_EVENT_KINDS[kind], member, self.round, phase,
                label(phase, value),
                missing=resolve(missing) if missing >= 0 else (),
                coverage=coverage if kind == FINALIZE else None,
            )


class PhaseSink:
    """Minimal interface protocol processes emit :class:`PhaseEvent`\\ s to.

    Implementations must not draw randomness or mutate protocol state:
    the byte-identity guarantee (traced == untraced results) rests on
    emission being a pure observation.
    """

    def emit(self, event: PhaseEvent) -> None:
        raise NotImplementedError

    def emit_block(self, block: PhaseBlock) -> None:
        """Take one round's block; by default its events, one by one."""
        for event in block.events():
            self.emit(event)


def format_subtree(hierarchy, subtree) -> str:
    """Render a :class:`~repro.core.gridbox.SubtreeId` as an address prefix.

    The prefix digits in base ``K`` followed by ``*`` (``"03*"`` = all
    boxes whose address starts ``0, 3``); the root — an empty prefix — is
    ``"*"``.  Matches :meth:`GridBoxHierarchy.format_address` digit order,
    so "member X lost subtree 0*" reads against the rendered hierarchy.
    """
    length = subtree.prefix_length
    if length == 0:
        return "*"
    digits = []
    value = subtree.prefix_value
    for _ in range(length):
        digits.append(value % hierarchy.k)
        value //= hierarchy.k
    sep = "." if hierarchy.k > 10 else ""
    return sep.join(str(d) for d in reversed(digits)) + "*"


def format_key(hierarchy, key) -> str:
    """Render an expected-value key: a member id or a child subtree id.

    Phase 1 expects individual votes (``"member:17"``); later phases
    expect child-subtree aggregates (``"03*"``).
    """
    if isinstance(key, int):
        return f"member:{key}"
    return format_subtree(hierarchy, key)
