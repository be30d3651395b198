"""Columnar round stepping for :class:`HierarchicalGossipProcess` groups.

:class:`HierarchicalArrayStepper` plugs into
:class:`~repro.sim.array_engine.ArraySteppedEngine` and keeps what a
round reads and writes as columns, one *row* per member.  The paper
keeps per-member state constant — at most ``K`` child aggregates per
phase (Section 6.3) — and a row is exactly that:

* **Known values** — per value a key *slot* (phase 1: hierarchy rank
  minus the box's first rank; phase ``i > 1``: the child's digit), the
  id of the value in the group's columnar state table
  (:class:`~repro.core.aggregates.StateTable`: coverage count, wire
  size, payload columns and coverage as rank intervals per id), and the
  slots in insertion order.  Counts and ranges travel upward, never
  member or state objects.
* **Admission** (:meth:`~HierarchicalArrayStepper.admit`) — one pass
  over a delivered chunk's same-phase entries, keyed by (row, slot)
  cell: ``absorb_payloads``' rule is a selection, so per cell the first
  entry of greatest coverage (the first, under
  ``prefer_coverage=False``) is found by one scatter-max and replaces an
  empty cell or, under prefer, a held value of strictly lower coverage;
  new keys go last, in first-arrival order; every arrival counts toward
  ``_phase_received``; a push-pull answer is the row before its
  arrival, from the same pass.  A future-phase arrival goes to a
  columnar buffer — (row, phase, slot, state id) per entry.
  Every arrival comes in a chunk: the stepper has no per-message
  admission, so it screens nothing (adversarial runs take the object
  engine).
* **Payloads** (:class:`RowSnapshots`) — a send block carries sender
  row snapshots; a row over the batch cap sends a Floyd subset drawn
  after its target draws.  Single-value gossip (``batch_values=False``)
  sends a one-entry row per sender — or per gossipee under
  ``independent_values`` — holding the value at an insertion-order
  position drawn after the targets, as ``_gossip`` draws it; such a row
  stands for a ``GossipValue`` (``2·ID_SIZE`` plus the state on the
  wire) and never asks for a push-pull answer.
* **Advance** (step II(b), :meth:`~HierarchicalArrayStepper._advance`)
  — the process's bump-up rule in columns: a row bumps early when
  complete outside the final phase, else at its timeout or the final
  deadline unless adaptive deadlines extend it a round.  It composes in
  the table, every bumping row at once: payloads fold in insertion order
  (a fixed-width aggregate as columns, any other by its combiner) and
  the held intervals join in slot order, adjacent ranges merged
  (structural admission keeps children disjoint: no splice), then
  finalises or enters the next phase: ``{own child: composed}``, pool,
  key base and completion group from per-(phase, subtree) tables, its
  buffer for that phase drained in one pass, and a second test in
  the same round (the cascade).  Its phase events leave as columns —
  per level the bumps (:func:`bump_events`), finalizes and entries —
  and the group's one sink gets one
  :class:`~repro.core.observe.PhaseBlock` per round: a counting sink
  never builds a ``PhaseEvent``.

**The row is the member's state.**  The stepper binds a member group
(``GossipGroup``): a spec of columns, from which no process is built,
started or bound.  A row starts from the vote column, lifted into the
table at its hierarchy rank, and the start-round column; phase 1's
entries leave as one block.  The group's ``phase`` column is the rows'
phase, and finalising writes its ``result_ids`` and ``coverage``
columns; the group's members are views that read them (a sweep never
frees a result; ``result`` builds its ``AggregateState`` on read).
Liveness and termination are the engine's row masks, which are the
group's ``alive`` and ``terminated`` columns.  The runtime
sanitizer checks each bumping row where the process checks itself: its
held values before the compose, the composition and the phase clock
(keyed by member id) after (:mod:`repro.sanitize`); the row composes
as it would unsanitized.

**Bit-identity argument.**  Per-member gossip streams are independent,
so batching target draws across members never changes any member's
values; within a member, targets are drawn before batch-subset or value
doubles, as the object engine does.  The stepper claims the streams and keeps
them as PCG64 columns (``SamplerBank``), which serve the doubles the
process's own ``Generator`` would.  Sends are assembled in row order
with picks in draw order, so the shared loss stream is consumed in the
object engine's send order.  Receivers never touch each other's state during
delivery, and a cell ends holding a selection — the first value of
greatest coverage (or the first) among its held value and its arrivals
— so one pass over every receiver's cells selects what admission one
arrival after the other would.  An
advance mutates only its own row and sends nothing (a push-pull reply
is planned during delivery, on both engines), so advancing after all
sends, and level by level — every row's first bump, then every
cascading row's next — equals member by member.  The column fold runs
the combiner's own scalar operations in fold order.  A buffer drained
in one pass keeps per key the first value of greatest coverage, in
first-arrival order: the process's buffer dict admitted over ``{own
child: composed}``.  A block's events are sorted by row (stably), each
row's in cascade order — the object engine's order.  The cross-engine
suite pins this; ``tests/property/test_columnar_advance.py`` ties the
advance to the process's own.

Supported configurations: hierarchical gossip with any
``GossipParams``, network, failure model, view, start wave or (shared)
phase sink, and every chaos campaign that neither taps sends nor
injects messages (the engine refuses both).
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

import repro.sanitize as sanitize
from repro.core.aggregates import _room
from repro.core.gridbox import SubtreeId
from repro.core.hierarchical_gossip import (
    GossipParams,
    bump_events,
    is_representative,
    partial_view_keys,
    retransmit_rounds,
)
from repro.core.messages import ID_SIZE
from repro.core.observe import (
    BUMP_UP_TIMEOUT,
    FINALIZE,
    PHASE_ENTER,
    REPRESENTATIVE_ELECTED,
    SUBTREE_COMPLETE,
    PhaseBlock,
    format_key,
    format_subtree,
)
from repro.sim.sampling import SamplerBank

__all__ = ["HierarchicalArrayStepper", "RowSnapshots", "unsupported_reason"]

#: Receivers admitted per pass: bounds the pass's temporaries.
_BLOCK = 1024

#: Own-index sentinel for members whose pool already excludes them
#: (partial views): no pick ever reaches it, so no shift is applied.
_NO_SELF = np.iinfo(np.int64).max


def unsupported_reason(params: GossipParams) -> str | None:
    """``None``: the stepper runs every ``GossipParams``."""
    return None


def _floyd(uniforms: np.ndarray, sizes: np.ndarray, count: int) -> np.ndarray:
    """Floyd's ``count``-subset of ``range(sizes[i])`` for every row ``i``.

    ``uniforms`` holds each row's next ``count`` doubles; int64
    truncation makes the picks, in pick order, bit-identical to the
    scalar ``BlockedSampler.pick_distinct``.
    """
    picks = np.empty((len(sizes), count), dtype=np.int64)
    for step in range(count):
        j = sizes - count + step
        t = (uniforms[:, step] * (j + 1)).astype(np.int64)
        if step:
            collided = (picks[:, :step] == t[:, None]).any(axis=1)
            picks[:, step] = np.where(collided, j, t)
        else:
            picks[:, 0] = t
    return picks


def _note(events: list, kinds, rows, phases, coverage=np.nan,
          missing=-1) -> None:
    """Append one chunk of event columns (scalars broadcast)."""
    if len(rows):
        events.append(tuple(
            np.full(len(rows), column)
            for column in (kinds, rows, phases, coverage, missing)
        ))


def _runs(rows: np.ndarray) -> np.ndarray:
    """A mask of where each run of equal values in ``rows`` begins."""
    begins = np.empty(len(rows), dtype=bool)
    begins[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=begins[1:])
    return begins


class RowSnapshots:
    """The payload table of one send block: row ``i`` is one payload.

    A row is (part of) a member's current-phase ``known`` when the
    block was built: its ``phase``, the key ``base`` its slots count
    from, the first ``length`` of ``(slots, sids)`` (the entries in
    insertion order; padding is state 0) and the wire size.
    ``owner[i]`` is the member row it came from; ``asks`` marks a table
    of push-pull requests (pushed batches: never answers or single
    values).
    """

    __slots__ = (
        "asks", "owner", "phase", "base", "length", "slots", "sids",
        "sizes", "__weakref__",
    )

    def __init__(self, asks, owner, phase, base, length, slots, sids,
                 sizes):
        self.asks = asks
        self.owner = owner
        self.phase = phase
        self.base = base
        self.length = length
        self.slots = slots
        self.sids = sids
        self.sizes = sizes


class HierarchicalArrayStepper:
    """One stepper instance drives one engine's member group."""

    def __init__(self) -> None:
        self._bank: SamplerBank | None = None

    # -- binding ---------------------------------------------------------
    def bind(self, engine) -> None:
        """Lay out the columns of ``engine.group`` (a ``GossipGroup``)."""
        group = self._spec = engine.group
        n = len(group)
        params = group.params
        assignment = group.assignment
        hierarchy = assignment.hierarchy
        self._ids = engine.row_ids
        self._members = max(1, len(assignment.member_ids))
        self._hierarchy = hierarchy
        self._rank_of = assignment.rank_of
        self._by_rank = assignment.members_by_rank()
        self._k = hierarchy.k
        self._digits = hierarchy.digits
        self._fanout = params.fanout_m
        self._prefer = params.prefer_coverage
        self._push_pull = params.push_pull
        self._batch = params.batch_values
        self._independent = params.independent_values
        self._early_bump = params.early_bump
        self._rpp = group.rounds_per_phase
        self._num_phases = hierarchy.num_phases
        self._deadline = self._num_phases * self._rpp
        self._adaptive = params.adaptive_deadlines
        self._budget = params.extension_budget(self._rpp)
        self._sink = group.phase_sink
        #: Per row: phase (the group's column), clock, the rounds this
        #: phase and all phases borrowed under adaptive deadlines, and
        #: this phase's arrivals.
        self._phase = group.phase
        (self._phase_rounds, self._pext, self._dext,
         self._recv) = np.zeros((4, n), dtype=np.int64)
        self._start_round = group.start_rounds
        self._spread = bool((self._start_round > 0).any())
        #: Per-row ``_is_representative()`` of the current phase, and the
        #: final-phase rounds at which sidelined members send anyway.
        self._fraction = params.representative_fraction
        self._all_rep = self._fraction >= 1.0
        self._is_rep = np.ones(n, dtype=bool)
        self._retransmit_rounds = sorted(
            retransmit_rounds(params.final_retransmit)
        )
        # The hierarchy as arrays: every member's box in the assignment's
        # member order (its subtree pools list members in that order),
        # each row's place in it, and the first rank of every box.
        self._member_ids = np.asarray(assignment.member_ids, dtype=np.int64)
        self._member_boxes = np.fromiter(
            (assignment.box_of(m) for m in assignment.member_ids),
            dtype=np.int64, count=len(self._member_ids),
        )
        by_id = np.argsort(self._member_ids, kind="stable")
        self._member_index = by_id[
            np.searchsorted(self._member_ids[by_id], self._ids)
        ]
        self._box = self._member_boxes[self._member_index]
        box_sizes = np.bincount(
            self._member_boxes, minlength=hierarchy.num_boxes
        )
        rank_start = np.concatenate(([0], np.cumsum(box_sizes)))
        self._box_start = rank_start[self._box]
        self._whole_view = group.complete_views()
        # Flattened gossipee pools: a complete view's pool is a segment
        # of its phase's table (every subtree's members in assignment
        # order); a partial view's is copied in at each phase entry.
        self._pool_offset = np.zeros(n, dtype=np.int64)
        self._pool_size = np.zeros(n, dtype=np.int64)  # excludes self
        self._own_index = np.full(n, _NO_SELF, dtype=np.int64)
        self._pool_data = np.empty(max(1024, 2 * n), dtype=np.int64)
        self._pool_used = 0
        self._phase_tables: dict[int, tuple] = {}
        width = max(self._k, int(box_sizes.max()))
        # The columnar ``known``: per row and slot a state id (0 = not
        # held), slots in insertion order, the count held, and the key
        # base the slots count from.
        self._sid = np.zeros((n, width), dtype=np.int32)
        self._order = np.zeros((n, width), dtype=np.min_scalar_type(width))
        self._held = np.zeros(n, dtype=np.int32)
        self._base = np.zeros(n, dtype=np.int64)
        #: The row changed since its last completion test.
        self._touched = np.zeros(n, dtype=bool)
        # The run-wide state table (the group's); id 0 is "no state".  A
        # state stays until a sweep (:meth:`_sweep`) finds no row, result,
        # buffer entry or queued table naming its id.
        self._states = group.states
        #: Payload tables built and not yet dropped by the engine.
        self._tables: list[weakref.ref] = []
        #: Registrations left before the next sweep.
        self._sweep_in = max(1024, n // 2)
        #: The future buffer: (row, phase, slot, state id) per entry, in
        #: arrival order, and the entries each row has in it.
        self._future = np.zeros((1024, 4), dtype=np.int64)
        self._future_used = 0
        self._future_count = np.zeros(n, dtype=np.int64)
        self._key_cache: dict[tuple[int, int], tuple] = {}
        self._labels: dict[tuple[int, int], str] = {}
        # Completion groups: one per complete-view (phase, subtree) and
        # per partial-view phase entry, as the coverage each slot needs —
        # at least 1 where a value is expected, else 0.
        self._group = np.zeros(n, dtype=np.int64)
        self._group_count = 0
        self._need = np.zeros((64, width), dtype=np.int32)
        self._bank = SamplerBank.seeded(
            engine.rngs.claim(self._ids, "gossip")
        )

    def begin(self, engine) -> None:
        """Round 0: every row holds its own vote — lifted from the vote
        column at its hierarchy rank — and enters phase 1 (one block of
        ``phase_enter`` events)."""
        group = self._spec
        rows = np.arange(len(self._ids))
        self._place(rows)
        # Ranks are (box address, member id) order.
        ranks = np.empty(len(self._member_ids), dtype=np.int64)
        ranks[np.lexsort((self._member_ids, self._member_boxes))] = (
            np.arange(len(ranks))
        )
        ranks = ranks[self._member_index]
        own = ranks - self._box_start
        ones = np.ones(len(rows), dtype=np.int64)
        self._sid[rows, own] = self._states.add(ones, ranks, ranks, ones, list(
            map(group.function.lift_payload, group.member_ids, group.votes)
        ))
        self._sweep_in -= len(rows)
        self._order[rows, 0] = own
        self._held[:] = 1
        self._touched[:] = True
        if sanitize.ACTIVE:
            sanitize.start_clock(group.member_ids)
        if self._sink is not None:
            events: list = []
            _note(events, PHASE_ENTER, rows, 1)
            self._emit(events, [], engine.round)

    # -- rows and the state table ---------------------------------------
    def _add_pool(self, members) -> int:
        """Offset of ``members`` appended to the flat pool table."""
        used = self._pool_used
        self._pool_used += len(members)
        self._pool_data = _room(self._pool_data, self._pool_used)
        self._pool_data[used:self._pool_used] = members
        return used

    def _table(self, *columns, **kwargs) -> RowSnapshots:
        """A new payload table, tracked until the engine drops it."""
        table = RowSnapshots(*columns, **kwargs)
        self._tables.append(weakref.ref(table))
        return table

    def _sweep(self, engine) -> None:
        """Free the table states that nothing can read any more.

        A state id is read from a row of a live member, from the future
        buffer and from a payload table still queued (or being
        delivered); every other id is dropped, so the table holds about
        what the object engine's ``known`` dicts and payloads would.
        """
        live = np.zeros(len(self._states), dtype=bool)
        live[self._sid[~engine.terminated_rows]] = True
        live[self._spec.result_ids] = True
        live[self._future[:self._future_used, 3]] = True
        tables = []
        for ref in self._tables:
            table = ref()
            if table is not None:
                live[table.sids] = True
                tables.append(ref)
        self._tables = tables
        self._states.sweep(live)
        self._sweep_in = max(1024, len(self._ids) // 2)

    def _keys(self, phase: int, base: int) -> tuple:
        """The keys of slots ``0, 1, ...`` for a phase and key base."""
        keys = self._key_cache.get((phase, base))
        if keys is None:
            if phase == 1:
                keys = self._by_rank[base:base + self._sid.shape[1]]
            else:
                length = self._digits + 2 - phase
                keys = tuple(
                    SubtreeId(length, base + digit)
                    for digit in range(self._k)
                )
            self._key_cache[(phase, base)] = keys
        return keys

    def _slot_of(self, phase: int, base: int, key) -> int:
        """The slot of a placed ``key`` in a row of this phase and base
        (admission placed it in the row's box or subtree)."""
        return (self._rank_of(key) if phase == 1 else key[1]) - base

    def _new_groups(self, count: int) -> int:
        """The first of ``count`` fresh completion groups."""
        first = self._group_count
        self._group_count += count
        self._need = _room(self._need, first + count)
        self._need[first:first + count] = 0
        return first

    def _phase_table(self, phase: int) -> tuple:
        """Per subtree of ``phase``, for complete views: pool offset and
        member count, every row's index in its pool, and the first
        completion group (subtree ``v`` has group ``first + v``).  A pool
        lists members in ``members_in_subtree``'s order, as the process's
        does."""
        table = self._phase_tables.get(phase)
        if table is not None:
            return table
        k = self._k
        subtree = self._member_boxes // k ** (phase - 1)
        count = self._hierarchy.num_boxes // k ** (phase - 1)
        order = np.argsort(subtree, kind="stable")
        sizes = np.bincount(subtree, minlength=count)
        starts = np.cumsum(sizes) - sizes
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order)) - np.repeat(starts, sizes)
        first = self._new_groups(count)
        need = self._need[first:first + count]
        if phase == 1:  # every box member's vote
            need[:] = np.arange(need.shape[1]) < sizes[:, None]
        else:  # every occupied child, at its whole member count
            need[:, :k] = np.bincount(
                self._member_boxes // k ** (phase - 2), minlength=count * k
            ).reshape(count, k)
        table = self._phase_tables[phase] = (
            self._add_pool(self._member_ids[order]) + starts, sizes,
            position[self._member_index], first,
        )
        return table

    def _place(self, rows: np.ndarray) -> None:
        """Phase-entry columns of ``rows`` (their phase is set): key base,
        gossipee pool, completion group and representative role — per
        (phase, subtree) from the hierarchy's tables for complete views,
        from each partial view's own lookups otherwise."""
        k = self._k
        phases = self._phase[rows]
        for phase in np.unique(phases).tolist():
            at = rows[phases == phase]
            width = k ** (phase - 1)
            subtree = self._box[at] // width
            self._base[at] = (
                self._box_start[at] if phase == 1 else subtree * k
            )
            whole = self._whole_view[at]
            if whole.any():
                offsets, sizes, position, first = self._phase_table(phase)
                rows_in, subtree = at[whole], subtree[whole]
                self._pool_offset[rows_in] = offsets[subtree]
                self._pool_size[rows_in] = sizes[subtree] - 1
                self._own_index[rows_in] = position[rows_in]
                self._group[rows_in] = first + subtree
            assignment = self._spec.assignment
            for row, base in zip(
                at[~whole].tolist(), self._base[at[~whole]].tolist()
            ):
                # A partial view: its own pool (without itself) and
                # expected keys — box members or child subtrees, slotted.
                member = int(self._ids[row])
                view = self._spec.view_of(row)
                pool = assignment.peers_in_subtree(member, phase, view)
                self._pool_offset[row] = self._add_pool(pool)
                self._pool_size[row] = len(pool)
                group = self._group[row] = self._new_groups(1)
                self._need[group][[
                    self._slot_of(phase, base, key)
                    for key in partial_view_keys(
                        assignment, member, view, phase
                    )
                ]] = 1
            if not self._all_rep:
                self._is_rep[at] = [
                    is_representative(member, phase, self._fraction)
                    for member in self._ids[at].tolist()
                ]

    def _sizes(self, length: np.ndarray, sids: np.ndarray) -> np.ndarray:
        """``GossipBatch.wire_size`` of snapshot rows (padding is 0)."""
        return ID_SIZE * (1 + length) + self._states.size[sids].sum(axis=1)

    def _complete(self, rows: np.ndarray) -> np.ndarray:
        """``_phase_complete``'s early-bump test, for columnar rows."""
        sids = self._sid[rows]
        need = self._need[self._group[rows]]
        return ~np.where(
            sids != 0, self._states.count[sids] < need, need > 0
        ).any(axis=1)

    def _missing(self, rows: np.ndarray) -> np.ndarray:
        """Per row and slot: expected but not held."""
        return (self._need[self._group[rows]] > 0) & (self._sid[rows] == 0)

    # -- the future buffer -----------------------------------------------
    def _buffer(self, rows, phases, slots, sids) -> None:
        """Append future-phase entries, in arrival order."""
        used = self._future_used
        self._future_used += len(rows)
        self._future = _room(self._future, self._future_used)
        for column, values in enumerate((rows, phases, slots, sids)):
            self._future[used:self._future_used, column] = values
        np.add.at(self._future_count, rows, 1)

    def _take(self, chosen: np.ndarray) -> np.ndarray:
        """Remove the buffer entries ``chosen`` (a mask); their columns."""
        log = self._future[:self._future_used]
        taken, kept = log[chosen], log[~chosen]
        self._future[:len(kept)] = kept
        self._future_used = len(kept)
        np.subtract.at(self._future_count, taken[:, 0], 1)
        return taken.T

    def _drain(self, rows: np.ndarray) -> None:
        """Admit the buffered entries of the phase ``rows`` just entered,
        in arrival order, one entry per arrival — so the own child's
        composed value yields only to strictly more coverage."""
        rows = rows[self._future_count[rows] > 0]
        if not len(rows):
            return
        entering = np.zeros(len(self._ids), dtype=bool)
        entering[rows] = True
        log = self._future[:self._future_used]
        row, __, slot, sid = self._take(
            entering[log[:, 0]] & (log[:, 1] == self._phase[log[:, 0]])
        )
        if len(row):
            by_row = np.argsort(row, kind="stable")
            self._absorb(
                row[by_row], slot[by_row, None], sid[by_row, None],
                np.ones(len(row), dtype=np.int64),
            )

    # -- delivery --------------------------------------------------------
    def admit(self, engine, rows: np.ndarray, table_rows: np.ndarray,
              table: RowSnapshots):
        """Admit one delivered chunk; returns its push-pull answers.

        ``rows`` are the live receivers in ascending order (arrival
        order kept within each), ``table_rows`` the payload rows of
        ``table`` that arrived.  Returns ``None`` or ``(asked, answering
        rows, answers)``: ``asked`` indexes the request each answer
        row of the ``answers`` table replies to, ascending.
        """
        live = ~engine.terminated_rows[rows]
        arrival_phase = table.phase[table_rows]
        row_phase = self._phase[rows]
        future = np.flatnonzero(live & (arrival_phase > row_phase))
        if len(future):
            arrived = table_rows[future]
            length = table.length[arrived]
            valid = np.arange(table.slots.shape[1]) < length[:, None]
            self._buffer(
                np.repeat(rows[future], length),
                np.repeat(arrival_phase[future], length),
                table.slots[arrived][valid], table.sids[arrived][valid],
            )
        same = np.flatnonzero(live & (arrival_phase == row_phase))
        if not len(same):
            return None
        arrived = table_rows[same]
        pull = self._push_pull and table.asks
        answers = self._absorb(
            rows[same], table.slots[arrived], table.sids[arrived],
            table.length[arrived], pull,
        )
        if not pull:
            return None
        rows, length, slots, sids = answers
        return same, rows, self._table(
            False, rows, self._phase[rows], self._base[rows], length,
            slots, sids, self._sizes(length, sids),
        )

    def _absorb(self, rows, slots, sids, length, pull=False):
        """Admit arrivals in one pass — receivers ``rows`` ascending, each
        one's in arrival order; the first ``length`` of each arrival's
        ``(slots, sids)`` — a block of whole receivers at a time.  With
        ``pull``, returns every arrival's push-pull answer: ``(rows,
        lengths, slots, sids)``."""
        np.add.at(self._recv, rows, 1)
        cuts = [len(rows)]
        if len(rows) > _BLOCK:  # every _BLOCK-th receiver starts a block
            cuts[:0] = np.flatnonzero(_runs(rows))[_BLOCK::_BLOCK].tolist()
        answers = []
        low = 0
        for high in cuts:
            answers.append(self._absorb_block(
                rows[low:high], slots[low:high], sids[low:high],
                length[low:high], pull,
            ))
            low = high
        if not pull:
            return None
        return tuple(np.concatenate(column) for column in zip(*answers))

    def _absorb_block(self, rows, slots, sids, length, pull):
        """One pass over the entries of a block of receivers.  Per
        (row, slot) cell the winner is the first entry of greatest
        coverage (the first under ``prefer_coverage=False``); it
        replaces an empty cell, or under prefer a held value of strictly
        lower coverage.  New keys go after the held ones, in the order
        of their first arrival."""
        width = self._sid.shape[1]
        counts = self._states.count
        columns = slots.shape[1]
        entries = np.flatnonzero(np.arange(columns) < length[:, None])
        arrival = entries // columns  # entries in chunk order
        slot = slots.reshape(-1)[entries]
        sid = sids.reshape(-1)[entries]
        total = len(sid)
        firsts = _runs(rows)
        receiver = np.searchsorted(rows[firsts], rows)  # per arrival
        cell = receiver[arrival] * width + slot  # in the block
        # A cell's winner has the greatest key: (count, earliness).
        early = np.arange(total, 0, -1)
        key = early
        if self._prefer:
            key = np.multiply(counts[sid], total + 1, dtype=np.int64)
            key += early
        best = np.zeros((receiver[-1] + 1) * width, dtype=np.int64)
        np.maximum.at(best, cell, key)
        won = np.flatnonzero(best[cell] == key)  # one per cell, in order
        owner = rows[arrival[won]]
        flat = self._sid.reshape(-1)
        at = owner * width + slot[won]
        current = flat[at]
        empty = current == 0
        take = empty
        if self._prefer:
            take = empty | (counts[sid[won]] > counts[current])
        held = self._held[rows] if pull else None
        fresh = won[empty]
        if len(fresh):
            if self._prefer:  # a new key is placed by its first arrival
                best[:] = 0
                np.maximum.at(best, cell, early)
                fresh = np.sort(total - best[cell[fresh]])
            # A new key goes after every key the row held, in entry order.
            new_rows = rows[arrival[fresh]]
            place = np.arange(len(fresh)) - np.searchsorted(
                new_rows, new_rows
            )
            self._order.reshape(-1)[
                new_rows * width + self._held[new_rows] + place
            ] = slot[fresh]
            # An int32 one keeps ufunc.at on its fast path.
            np.add.at(self._held, new_rows, np.int32(1))
        answers = None
        if pull:
            answers = self._answers(
                rows, held, arrival * width + slot, sid, key, fresh,
                receiver, firsts, length,
            )
        flat[at[take]] = sid[won[take]]
        self._touched[owner[take]] = True
        return answers

    def _answers(self, rows, held, spot, sid, key, fresh, receiver, firsts,
                 length) -> tuple:
        """Each arrival's push-pull answer: its receiver's first entries
        as they stood before it.  Called after the pass has placed its
        new keys and before it writes its values: ``held`` is the rows'
        count before, ``spot`` each entry's (arrival, slot) cell and
        ``key`` its winner key."""
        width, k = self._sid.shape[1], self._k
        counts = self._states.count
        total = len(key)
        begins = np.cumsum(length) - length  # each arrival's first entry
        since = begins[firsts][receiver]  # its receiver's first arrival's
        # The new keys first seen at earlier arrivals of the receiver.
        held = held + np.searchsorted(fresh, begins) - np.searchsorted(
            fresh, since
        )
        answered = np.minimum(held, k)
        slots = self._order[rows, :k]
        # The held values, replaced below where an earlier entry won.
        answer = self._sid.reshape(-1)[(rows * width)[:, None] + slots]
        # Keys per (arrival, slot) from row 1 on, raised per receiver so
        # that a running max down the arrivals never crosses into the
        # next receiver: row ``i`` is then each cell's winner before
        # arrival ``i`` (below 0 at a receiver's first, once lowered).
        span = int(key.max()) + 1 if total else 1
        lift = (receiver * span)[:, None]
        keys = np.zeros((len(rows) + 1, width), dtype=np.int64)
        keys.reshape(-1)[width + spot] = key
        keys[1:] += lift
        np.maximum.accumulate(keys, axis=0, out=keys)
        earlier = keys.reshape(-1)[
            (np.arange(len(rows)) * width)[:, None] + slots
        ] - lift
        # The held value's own key: it beats an equal count (prefer) or
        # every arrival (first wins); an empty cell's loses to any.
        beaten = (answer != 0) * (total + 1) * (
            1 + self._prefer * counts[answer].astype(np.int64)
        )
        take = earlier > beaten
        answer[take] = sid[total - earlier[take] % (total + 1)]
        answer[np.arange(k) >= answered[:, None]] = 0
        return rows, answered, slots, answer

    # -- one round -------------------------------------------------------
    def step(self, engine) -> None:
        if self._sweep_in <= 0:
            self._sweep(engine)
        stepped = engine.alive_rows & ~engine.terminated_rows
        if self._spread:
            stepped &= self._start_round <= engine.round
        self._send(engine, stepped)
        self._phase_rounds[stepped] += 1
        self._advance(engine, stepped)

    def _send(self, engine, stepped: np.ndarray) -> None:
        """The stepped rows' gossip: member-major, picks in draw order."""
        senders = stepped & (self._pool_size >= 1)
        if not self._all_rep:
            # ``_gossip``'s gate: a representative, or ``_retransmit_due``.
            senders &= self._is_rep | (
                (self._phase >= self._num_phases)
                & np.isin(self._phase_rounds, self._retransmit_rounds)
            )
        rows = np.flatnonzero(senders)
        if not len(rows):
            return
        pool_sizes = self._pool_size[rows]
        counts = np.minimum(self._fanout, pool_sizes)
        total = int(counts.sum())
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        dest_flat = np.empty(total, dtype=np.int64)
        drawing = counts < pool_sizes
        for count in np.unique(counts[drawing]).tolist():
            self._pick_targets(
                rows, drawing & (counts == count), int(count),
                pool_sizes, offsets, dest_flat, draw=True,
            )
        for count in np.unique(counts[~drawing]).tolist():
            self._pick_targets(
                rows, ~drawing & (counts == count), int(count),
                pool_sizes, offsets, dest_flat, draw=False,
            )
        # Payloads draw over-cap subsets or values *after* the target
        # draws — the object engine's order within a member's stream.
        sender = np.repeat(np.arange(len(rows)), counts)
        if self._batch:
            table, carried = self._snapshot(rows), sender
        else:
            table, carried = self._singles(rows, counts, sender)
        engine.window_sends[rows] = counts
        engine.submit_block(
            engine.row_ids[rows][sender],
            dest_flat,
            table.sizes[carried],
            np.arange(total) - offsets[sender],
            carried,
            table,
        )

    # -- advance (step II(b)) --------------------------------------------
    def _advance(self, engine, stepped: np.ndarray) -> None:
        """Bump up every stepped row that may, cascading: a row that
        entered a phase is tested again in the same round."""
        round_number = engine.round
        final = self._phase >= self._num_phases
        candidates = self._at_limit(slice(None), final, round_number)
        if self._early_bump:
            candidates |= self._touched & ~final
        self._touched &= ~stepped
        rows = np.flatnonzero(candidates & stepped)
        # Event columns per chunk, and the missing slots timeouts list.
        events: list | None = [] if self._sink is not None else None
        gone: list = []
        while len(rows):
            rows = rows[self._verdict(rows, round_number)]
            if not len(rows):
                break
            if events is not None:
                self._note_bumps(rows, events, gone)
            composed = self._compose(rows, round_number)
            last = self._phase[rows] >= self._num_phases
            if last.any():
                self._finalize(engine, rows[last], composed[last], events)
            rows = rows[~last]
            if len(rows):
                self._enter(rows, composed[~last], events)
        if events:
            self._emit(events, gone, round_number)

    def _at_limit(self, rows, final, round_number) -> np.ndarray:
        """At the phase timeout, or in the final phase at the deadline —
        each slid by the rounds adaptive deadlines borrowed."""
        return np.where(
            final,
            round_number - self._start_round[rows] + 1
            >= self._deadline + self._dext[rows],
            self._phase_rounds[rows] >= self._rpp + self._pext[rows],
        )

    def _verdict(self, rows: np.ndarray, round_number: int) -> np.ndarray:
        """Which of ``rows`` bump now (``_phase_complete``): early when
        complete outside the final phase, else at their limit — unless
        adaptive deadlines grant (and here give) one more round
        (``_maybe_extend``: a value missing, few deliveries, budget)."""
        final = self._phase[rows] >= self._num_phases
        limit = self._at_limit(rows, final, round_number)
        early = np.zeros(len(rows), dtype=bool)
        if self._early_bump:
            open_ = np.flatnonzero(~final)
            early[open_] = self._complete(rows[open_])
        limit &= ~early
        if self._adaptive:
            extend = (
                limit & (self._pext[rows] < self._budget)
                & self._missing(rows).any(axis=1)
                & (2 * self._recv[rows]
                   < self._fanout * np.maximum(1, self._phase_rounds[rows]))
            )
            self._pext[rows[extend]] += 1
            self._dext[rows[extend]] += 1
            limit &= ~extend
        return early | limit

    def _compose(self, rows: np.ndarray, round_number: int) -> np.ndarray:
        """Each row's values composed (``_compose_known``); their ids.  A
        lone value is its own composition; the others compose in the
        state table (:meth:`~repro.core.aggregates.StateTable.compose`),
        all at once.  Under the runtime sanitizer each row's held
        values are checked before and its composition after — next to
        the compose, never in its place."""
        held = self._held[rows]
        ids = self._sid[rows[:, None], self._order[rows, :int(held.max())]]
        sanitized = sanitize.ACTIVE
        if sanitized:
            members = [self._spec[row] for row in rows.tolist()]
            phases = self._phase[rows].tolist()
            for member, phase, sids, count in zip(
                members, phases, ids.tolist(), held.tolist()
            ):
                sanitize.check_held(
                    member, round_number, phase,
                    [self._states[sid] for sid in sids[:count]],
                )
        composed = ids[:, 0].astype(np.int64)
        many = np.flatnonzero(held > 1)
        if len(many):
            composed[many] = self._states.compose(
                ids[many], held[many], self._sid[rows[many]]
            )
            self._sweep_in -= len(many)
        if sanitized:
            for member, phase, sid in zip(
                members, phases, composed.tolist()
            ):
                sanitize.check_compose(member, round_number, phase,
                                       self._states[sid])
                sanitize.check_phase_bump(member, round_number, phase,
                                          phase + 1)
        return composed

    def _finalize(self, engine, rows, composed, events) -> None:
        """The final phase composed: the rows' result and coverage
        columns are written, they pass the last phase and terminate."""
        coverage = self._states.count[composed] / self._members
        self._spec.result_ids[rows] = composed
        self._spec.coverage[rows] = coverage
        self._phase[rows] = self._num_phases + 1
        engine.terminate_rows(rows)
        if events is not None:
            _note(events, FINALIZE, rows, self._num_phases, coverage)

    def _enter(self, rows, composed, events) -> None:
        """Move ``rows`` to their next phase holding ``{own child:
        composed}``, place them and drain their buffer for it."""
        phase = self._phase[rows] + 1
        own = self._box[rows] // self._k ** (phase - 2) % self._k
        self._phase[rows] = phase
        self._phase_rounds[rows] = 0
        self._pext[rows] = 0
        self._sid[rows] = 0
        self._sid[rows, own] = composed
        self._order[rows, 0] = own
        self._held[rows] = 1
        self._touched[rows] = True
        self._place(rows)
        self._drain(rows)
        self._recv[rows] = 0  # the drain is no delivery
        if events is not None:
            _note(events, PHASE_ENTER, rows, phase)
            if not self._all_rep:
                elected = self._is_rep[rows]
                _note(events, REPRESENTATIVE_ELECTED, rows[elected],
                      phase[elected])

    # -- phase events ----------------------------------------------------
    def _note_bumps(self, rows, events, gone) -> None:
        """The bump events of ``rows`` (:func:`bump_events`); a timeout
        with values missing indexes its missing slots, kept in ``gone``."""
        phases = self._phase[rows]
        missing = self._missing(rows)
        short = missing.any(axis=1)
        fires, closing = bump_events(
            self._complete(rows), short, phases >= self._num_phases,
            self._phase_rounds[rows] >= self._rpp + self._pext[rows],
        )
        _note(events, SUBTREE_COMPLETE, rows[fires], phases[fires])
        listed = short & (closing == BUMP_UP_TIMEOUT)
        index = np.full(len(rows), -1)
        index[listed] = len(gone) + np.arange(np.count_nonzero(listed))
        gone.extend(zip(
            phases[listed].tolist(), self._base[rows[listed]].tolist(),
            missing[listed],
        ))
        closes = closing >= 0
        _note(events, closing[closes], rows[closes], phases[closes],
              missing=index[closes])

    def _emit(self, events: list, gone: list, round_number: int) -> None:
        """Hand the sink this round's events as one block: sorted by row
        (stably), so each row's stay in cascade order."""
        assert self._sink is not None  # events are noted only for a sink
        kinds, rows, phases, coverage, missing = (
            np.concatenate(column) for column in zip(*events)
        )
        order = np.argsort(rows, kind="stable")
        rows, phases = rows[order], phases[order]
        self._sink.emit_block(PhaseBlock(
            round_number, kinds[order], self._ids[rows], phases,
            self._box[rows] // self._k ** (phases - 1), coverage[order],
            missing[order], self._label, partial(self._resolve, gone),
        ))

    def _label(self, phase: int, value: int) -> str:
        """The formatted phase-``phase`` subtree with prefix ``value`` (as
        the process's ``_subtree_label``)."""
        label = self._labels.get((phase, value))
        if label is None:
            label = self._labels[(phase, value)] = format_subtree(
                self._hierarchy, SubtreeId(self._digits + 1 - phase, value)
            )
        return label

    def _resolve(self, gone: list, index: int) -> tuple[str, ...]:
        """The sorted formatted keys of missing set ``index`` — (phase,
        key base, missing slots) in ``gone`` — built only when asked."""
        phase, base, slots = gone[index]
        keys = self._keys(phase, base)
        return tuple(sorted(
            format_key(self._hierarchy, keys[slot])
            for slot in np.flatnonzero(slots).tolist()
        ))

    def _snapshot(self, rows: np.ndarray) -> RowSnapshots:
        """The payload table of this round's senders ``rows``."""
        cols = self._k
        held = self._held[rows]
        length = np.minimum(held, cols)
        positions = np.empty((len(rows), cols), dtype=np.int64)
        positions[:] = np.arange(cols)
        over = held > cols
        if over.any():
            positions[over] = _floyd(
                self._bank.draw_matrix(rows[over], cols), held[over], cols
            )
        slots = self._order[rows[:, None], positions]
        sids = self._sid[rows[:, None], slots]
        sids[np.arange(cols) >= length[:, None]] = 0
        return self._table(
            True, rows, self._phase[rows], self._base[rows], length,
            slots, sids, self._sizes(length, sids),
        )

    def _singles(self, rows: np.ndarray, counts: np.ndarray,
                 sender: np.ndarray) -> tuple:
        """Single-value gossip's table and the row each send carries: one
        held value per sender, or per gossipee under
        ``independent_values`` — at the insertion-order position its
        next double picks (``_gossip``'s ``sampler.index``)."""
        if self._independent:
            owner, carried = rows[sender], np.arange(len(sender))
            draws = np.empty(len(sender))
            for count in np.unique(counts).tolist():
                chosen = counts == count
                draws[chosen[sender]] = self._bank.draw_matrix(
                    rows[chosen], count
                ).reshape(-1)
        else:
            owner, carried = rows, sender
            draws = self._bank.draw_matrix(rows, 1)[:, 0]
        position = (draws * self._held[owner]).astype(np.int64)
        slots = self._order[owner, position]
        sids = self._sid[owner, slots]
        return self._table(
            False, owner, self._phase[owner], self._base[owner],
            np.ones(len(owner), dtype=np.int64), slots[:, None],
            sids[:, None],
            2 * ID_SIZE + self._states.size[sids].astype(np.int64),
        ), carried

    def _pick_targets(
        self,
        rows: np.ndarray,
        selector: np.ndarray,
        count: int,
        pool_sizes: np.ndarray,
        offsets: np.ndarray,
        dest_flat: np.ndarray,
        draw: bool,
    ) -> None:
        """Fill ``dest_flat`` for the senders in ``selector``.

        ``draw=True`` runs Floyd's k-subset algorithm vectorized over
        the block (``count`` doubles per member); ``draw=False`` is the
        full-pool case (``count == pool size``), which consumes no
        randomness and targets every pool slot in order.
        """
        group = rows[selector]
        if len(group) == 0:
            return
        if draw:
            picks = _floyd(
                self._bank.draw_matrix(group, count),
                pool_sizes[selector], count,
            )
        else:
            picks = np.broadcast_to(
                np.arange(count, dtype=np.int64), (len(group), count)
            )
        # Map draws over pool-minus-self onto pool indices, then ids.
        indices = picks + (picks >= self._own_index[group][:, None])
        dest = self._pool_data[
            self._pool_offset[group][:, None] + indices
        ]
        positions = offsets[selector][:, None] + np.arange(count)
        dest_flat[positions] = dest
