"""Columnar round stepping for :class:`HierarchicalGossipProcess` groups.

:class:`HierarchicalArrayStepper` plugs into
:class:`~repro.sim.array_engine.ArraySteppedEngine` and keeps what a
round reads and writes as columns, one *row* per member.  The paper
keeps per-member state constant — at most ``K`` child aggregates per
phase (Section 6.3) — and a row is exactly that:

* **Known values** — per value a key *slot* (phase 1: hierarchy rank
  minus the box's first rank; phase ``i > 1``: the child's digit), the
  id of the value in one run-wide table of ``AggregateState`` objects
  (coverage count, wire size and, for a fixed-width aggregate, the
  payload scalars are columns of it), and the slots in insertion order.
  Counts and ranges travel upward, never member objects.
* **Admission** (:meth:`~HierarchicalArrayStepper.admit`) — wave ``w``
  of a delivered chunk takes every receiver's ``w``-th same-phase
  arrival: ``absorb_payloads``' rule side by side (strictly greater
  coverage replaces, or first wins under ``prefer_coverage=False``; a
  new key goes last; every arrival counts toward ``_phase_received``; a
  push-pull answer is the row before its wave).  A future-phase arrival
  goes to a columnar buffer — (row, phase, slot, state id) per entry.
  A scalar arrival (an injection or a per-message-planned send: every
  message of an adversarial run, whose screen is armed) is admitted
  entry by entry (:meth:`~HierarchicalArrayStepper.receive`).
* **Payloads** (:class:`RowSnapshots`) — a send block carries sender
  row snapshots; a row over the batch cap sends a Floyd subset drawn
  after its target draws.
* **Advance** (step II(b), :meth:`~HierarchicalArrayStepper._advance`)
  — the process's bump-up rule in columns: a row bumps early when
  complete outside the final phase, else at its timeout or the final
  deadline unless adaptive deadlines extend it a round.  It composes — a
  fixed-width aggregate as a column fold in insertion order, any other
  by ``merge_all`` — with the held masks concatenated in slot order
  (structural admission keeps children disjoint: no splice), then
  finalises or enters the next phase: ``{own child: composed}``, pool,
  key base and completion group from per-(phase, subtree) tables, its
  buffer for that phase drained by the wave rule, and a second test in
  the same round (the cascade).  Its phase events leave as columns —
  per level the bumps (:func:`bump_events`), finalizes and entries —
  and each sink gets one :class:`~repro.core.observe.PhaseBlock` per
  round: a counting sink never builds a ``PhaseEvent``.

**The row is the member's state.**  A row starts from its process's
own vote and start round, and nothing is written back: a process keeps
its static configuration, phase sink, sanitizer phase clock,
``refused`` count and — from the round its row finalises — result,
coverage, phase and termination.  Its ``known``, future buffer and
clocks stay as ``on_start`` left them.  The runtime sanitizer checks
each bumping row where the process checks itself: its held values
before the compose, the composition and the phase clock after
(:mod:`repro.sanitize`); the row composes as it would unsanitized.

**Bit-identity argument.**  Per-member gossip streams are independent,
so batching target draws across members never changes any member's
values; within a member, targets are drawn before batch-subset doubles,
as the object engine does.  The stepper claims the streams and keeps
them as PCG64 columns (``SamplerBank``), which serve the doubles the
process's own ``Generator`` would.  Sends are assembled in row order
with picks in draw order, so the shared loss stream is consumed in the
object engine's send order.  Receivers never touch each other's state during
delivery, so waves are admission one receiver after the other.  An
advance mutates only its own row and sends nothing (a push-pull reply
is planned during delivery, on both engines), so advancing after all
sends, and level by level — every row's first bump, then every
cascading row's next — equals member by member.  The column fold runs
the combiner's own scalar operations in fold order.  A buffer drained
by the wave rule keeps per key the first value of greatest coverage, in
first-arrival order: the process's buffer dict admitted over ``{own
child: composed}``.  A block's events are sorted by row (stably), each
row's in cascade order — the object engine's order.  The cross-engine
suite pins this; ``tests/property/test_columnar_advance.py`` ties the
advance to the process's own.

Supported configurations (:meth:`bind`, :func:`unsupported_reason`):
batch-mode hierarchical gossip, with any network, failure model, chaos
campaign, view, start wave, phase sink or hardening knob.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

import repro.sanitize as sanitize
from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
    bump_events,
    is_representative,
)
from repro.core.intervals import IntervalMask
from repro.core.messages import ID_SIZE, GossipBatch, GossipValue
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

#: Own-index sentinel for members whose pool already excludes them
#: (partial views): no pick ever reaches it, so no shift is applied.
_NO_SELF = np.iinfo(np.int64).max


def unsupported_reason(params: GossipParams) -> str | None:
    """Why these protocol params cannot run on the array stepper.

    ``None`` means supported.  The one unsupported knob changes what
    happens *inside* the round step in a way the batched path does not
    replicate: single-value gossip draws per-destination values.
    """
    if not params.batch_values:
        return "single-value gossip (batch_values=False)"
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


def _room(array: np.ndarray, rows: int) -> np.ndarray:
    """``array``, doubled until it has at least ``rows`` rows."""
    while len(array) < rows:
        array = np.concatenate((array, array))
    return array


def _note(events: list, kinds, rows, phases, coverage=np.nan,
          missing=-1) -> None:
    """Append one chunk of event columns (scalars broadcast)."""
    if len(rows):
        events.append(tuple(
            np.full(len(rows), column)
            for column in (kinds, rows, phases, coverage, missing)
        ))


def _starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``rows`` begins."""
    return np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])


class RowSnapshots:
    """The payload table of one send block: row ``i`` is one payload.

    A row is a member's current-phase ``known`` when the block was
    built: its ``phase``, the key ``base`` its slots count from, the
    first ``length`` of ``(slots, sids)`` (the entries in insertion
    order; padding is state 0) and the wire size.  ``owner[i]`` is the
    member row it came from; ``reply`` marks a table of push-pull
    answers.  :meth:`payloads` returns rows as payload objects, each
    built from its snapshot on first use.
    """

    __slots__ = (
        "_stepper", "reply", "owner", "phase", "base", "length", "slots",
        "sids", "sizes", "_objects", "__weakref__",
    )

    def __init__(self, stepper, reply, owner, phase, base, length, slots,
                 sids, sizes):
        self._stepper = stepper
        self.reply = reply
        self.owner = owner
        self.phase = phase
        self.base = base
        self.length = length
        self.slots = slots
        self.sids = sids
        self.sizes = sizes
        self._objects: dict[int, GossipBatch] = {}

    def payloads(self, rows: list[int]) -> list[GossipBatch]:
        """These rows as ``GossipBatch`` objects (memoized per table)."""
        objects = self._objects
        missing = [row for row in dict.fromkeys(rows) if row not in objects]
        if missing:
            objects.update(zip(missing, self._stepper._batches(self, missing)))
        return [objects[row] for row in rows]


class HierarchicalArrayStepper:
    """One stepper instance drives one engine's member group."""

    def __init__(self) -> None:
        self._procs: list[HierarchicalGossipProcess] = []
        self._bank: SamplerBank | None = None
        self._ready = False

    # -- binding ---------------------------------------------------------
    def bind(self, engine) -> None:
        procs = engine.row_procs
        if not procs:
            raise ValueError("no processes registered")
        for proc in procs:
            if not isinstance(proc, HierarchicalGossipProcess):
                raise TypeError(
                    f"array stepping requires HierarchicalGossipProcess "
                    f"members, got {type(proc).__name__}"
                )
        first = procs[0]
        reason = unsupported_reason(first.params)
        if reason is not None:
            raise ValueError(f"array engine unsupported: {reason}")
        for proc in procs:
            if (
                proc.params is not first.params
                or proc.assignment is not first.assignment
                or proc.rounds_per_phase != first.rounds_per_phase
                or type(proc.function) is not type(first.function)
            ):
                raise ValueError(
                    "array stepping requires a homogeneous group "
                    "(shared GossipParams, hierarchy and aggregate)"
                )
        n = len(procs)
        params = first.params
        assignment = first.assignment
        hierarchy = assignment.hierarchy
        self._procs = procs
        self._ids = engine.row_ids
        self._members = max(1, len(assignment.member_ids))
        self._hierarchy = hierarchy
        self._rank_of = assignment.rank_of
        self._by_rank = assignment.members_by_rank()
        self._k = hierarchy.k
        self._digits = hierarchy.digits
        self._fanout = params.fanout_m
        self._cap = params.max_batch or hierarchy.k
        self._prefer = params.prefer_coverage
        self._push_pull = params.push_pull
        self._early_bump = params.early_bump
        self._rpp = first.rounds_per_phase
        self._num_phases = first.num_phases
        self._deadline = self._num_phases * self._rpp
        self._adaptive = params.adaptive_deadlines
        self._budget = params.extension_budget(self._rpp)
        self._function = first.function
        sinks = {
            id(proc.phase_sink): proc.phase_sink
            for proc in procs if proc.phase_sink is not None
        }
        index = {key: at for at, key in enumerate(sinks)}
        self._sinks = list(sinks.values())
        #: Per row the index of its sink in ``_sinks`` (-1: none).
        self._sink_of = np.array([
            index.get(id(proc.phase_sink), -1) for proc in procs
        ]) if sinks else None
        #: Per row: phase, clock, the rounds this phase and all phases
        #: borrowed under adaptive deadlines, this phase's arrivals, and
        #: the first round.
        (self._phase, self._phase_rounds, self._pext, self._dext,
         self._recv, self._start_round) = np.zeros((6, n), dtype=np.int64)
        self._phase += 1
        self._spread = False
        #: Per-row ``_is_representative()`` of the current phase, and the
        #: final-phase rounds at which sidelined members send anyway.
        self._fraction = params.representative_fraction
        self._all_rep = self._fraction >= 1.0
        self._is_rep = np.ones(n, dtype=bool)
        self._retransmit_rounds = sorted(first._retransmit_rounds)
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
        self._rank_start = np.concatenate(([0], np.cumsum(box_sizes)))
        self._box_start = self._rank_start[self._box]
        self._whole_view = np.fromiter(
            (proc._complete_view for proc in procs), dtype=bool, count=n
        )
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
        #: Entries a snapshot row can hold (batch cap, bounded by slots).
        self._cols = min(self._cap, width)
        # The columnar ``known``: per row and slot a state id (0 = not
        # held), slots in insertion order, the count held, and the key
        # base the slots count from.
        self._sid = np.zeros((n, width), dtype=np.int32)
        self._order = np.zeros((n, width), dtype=np.min_scalar_type(width))
        self._held = np.zeros(n, dtype=np.int32)
        self._base = np.zeros(n, dtype=np.int64)
        #: The row changed since its last completion test.
        self._touched = np.zeros(n, dtype=bool)
        # The run-wide state table; id 0 is "no state".  A state stays
        # until a sweep (:meth:`_sweep`) finds no row, buffer entry or
        # queued table naming its id.
        self._states: list = [None]
        self._scount = np.zeros(max(1024, 2 * n), dtype=np.int32)
        self._ssize = np.zeros(max(1024, 2 * n), dtype=np.int32)
        self._pay = [
            np.zeros(max(1024, 2 * n), dtype=dtype)
            for dtype in self._function.columns
        ]
        self._free: list[int] = []
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
        self._full_masks: dict[tuple[int, int], IntervalMask] = {}
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

    def _begin(self) -> None:
        """Seed every row with its own vote — the state ``on_start``
        lifted — from its start round."""
        self._ready = True
        procs = self._procs
        self._start_round[:] = [proc.start_round for proc in procs]
        self._spread = bool((self._start_round > 0).any())
        rows = np.arange(len(procs))
        self._place(rows)
        own = [self._rank_of(member) for member in self._ids.tolist()]
        own = np.asarray(own, dtype=np.int64) - self._box_start
        self._sid[rows, own] = self._register(
            [proc.known[proc.node_id] for proc in procs]
        )
        self._order[rows, 0] = own
        self._held[:] = 1
        self._touched[:] = True

    # -- rows and the state table ---------------------------------------
    def _add_pool(self, members) -> int:
        """Offset of ``members`` appended to the flat pool table."""
        used = self._pool_used
        self._pool_used += len(members)
        self._pool_data = _room(self._pool_data, self._pool_used)
        self._pool_data[used:self._pool_used] = members
        return used

    def _register(self, states: list, columns=None) -> list[int]:
        """Table ids for ``states`` (one new id each, freed ids first).

        A state registered twice gets two ids: admission compares
        coverage counts, and both ids read back as the same object.
        ``columns`` are the payload columns of states the stepper
        composed.
        """
        if not states:
            return []
        table = self._states
        free = self._free
        reused = free[max(0, len(free) - len(states)):]
        del free[len(free) - len(reused):]
        for sid, state in zip(reused, states):
            table[sid] = state
        start = len(table)
        table.extend(states[len(reused):])
        sids = reused + list(range(start, len(table)))
        self._scount = _room(self._scount, len(table))
        self._ssize = _room(self._ssize, len(table))
        self._scount[sids] = [state.members.count for state in states]
        if columns is None:
            self._ssize[sids] = [state.wire_size() for state in states]
            if self._pay:
                columns = self._function.payload_columns(
                    [state.payload for state in states]
                )
        else:
            self._ssize[sids] = states[0].wire_size()  # fixed width
        for index, values in enumerate(columns or ()):
            self._pay[index] = _room(self._pay[index], len(table))
            self._pay[index][sids] = values
        self._sweep_in -= len(states)
        return sids

    def _table(self, *columns, **kwargs) -> RowSnapshots:
        """A new payload table, tracked until the engine drops it."""
        table = RowSnapshots(self, *columns, **kwargs)
        self._tables.append(weakref.ref(table))
        return table

    def _sweep(self, engine) -> None:
        """Free the table states that nothing can read any more.

        A state id is read from a row of a live member, from the future
        buffer and from a payload table still queued (or being
        delivered); every other id is dropped, so the table holds about
        what the object engine's ``known`` dicts and payloads would.
        """
        states = self._states
        live = np.zeros(len(states), dtype=bool)
        live[self._sid[~engine.terminated_rows]] = True
        live[self._future[:self._future_used, 3]] = True
        tables = []
        for ref in self._tables:
            table = ref()
            if table is not None:
                live[table.sids] = True
                tables.append(ref)
        self._tables = tables
        live[0] = True
        self._free = np.flatnonzero(~live).tolist()
        for sid in self._free:
            states[sid] = None
        self._sweep_in = max(1024, len(self._procs) // 2)

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

    def _base_of(self, row: int, phase: int) -> int:
        """The key base of ``row``'s phase-``phase`` slots."""
        if phase == 1:
            return int(self._box_start[row])
        return int(self._box[row]) // self._k ** (phase - 1) * self._k

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
            for row, base in zip(
                at[~whole].tolist(), self._base[at[~whole]].tolist()
            ):
                # A partial view: its own pool (without itself) and
                # expected keys — box members or child subtrees, slotted.
                proc = self._procs[row]
                pool, __ = proc._peers_for_phase(phase)
                self._pool_offset[row] = self._add_pool(pool)
                self._pool_size[row] = len(pool)
                group = self._group[row] = self._new_groups(1)
                self._need[group][[
                    self._slot_of(phase, base, key)
                    for key in proc._expected_keys(phase)
                ]] = 1
            if not self._all_rep:
                self._is_rep[at] = [
                    is_representative(member, phase, self._fraction)
                    for member in self._ids[at].tolist()
                ]

    def _batches(self, table: RowSnapshots, rows: list[int]) -> list:
        """Snapshot rows as the payload objects they stand for."""
        index = np.asarray(rows, dtype=np.int64)
        states = self._states
        reply = table.reply
        built = []
        for count, phase, base, slot_row, sid_row in zip(
            table.length[index].tolist(), table.phase[index].tolist(),
            table.base[index].tolist(), table.slots[index].tolist(),
            table.sids[index].tolist(),
        ):
            keys = self._keys(phase, base)
            built.append(GossipBatch(phase, tuple(
                (keys[slot], states[sid])
                for slot, sid in zip(slot_row[:count], sid_row[:count])
            ), reply=reply))
        return built

    def _sizes(self, length: np.ndarray, sids: np.ndarray) -> np.ndarray:
        """``GossipBatch.wire_size`` of snapshot rows (padding is 0)."""
        return ID_SIZE * (1 + length) + self._ssize[sids].sum(axis=1)

    def _complete(self, rows: np.ndarray) -> np.ndarray:
        """``_phase_complete``'s early-bump test, for columnar rows."""
        sids = self._sid[rows]
        need = self._need[self._group[rows]]
        return ~np.where(sids != 0, self._scount[sids] < need, need > 0).any(
            axis=1
        )

    def _missing(self, rows: np.ndarray) -> np.ndarray:
        """Per row and slot: expected but not held."""
        return (self._need[self._group[rows]] > 0) & (self._sid[rows] == 0)

    # -- the future buffer -----------------------------------------------
    def _buffer(self, rows, phases, slots, sids) -> None:
        """Append future-phase entries, in arrival order."""
        used = self._future_used
        self._future_used += len(rows)
        self._future = _room(self._future, self._future_used)
        self._future[used:self._future_used] = np.column_stack(
            (rows, phases, slots, sids)
        )
        np.add.at(self._future_count, rows, 1)

    def _take(self, chosen: np.ndarray) -> np.ndarray:
        """Remove the buffer entries ``chosen`` (a mask); their columns."""
        log = self._future[:self._future_used]
        taken, kept = log[chosen], log[~chosen]
        self._future[:len(kept)] = kept
        self._future_used = len(kept)
        np.subtract.at(self._future_count, taken[:, 0], 1)
        return taken.T

    def _values(self, row: int, phase: int, base: int) -> dict:
        """What ``row`` holds for ``phase`` as ``absorb_payloads`` keeps
        it — key -> state: its values in insertion order, or for a
        future phase what its buffered entries resolve to (the drain's
        rule, :meth:`_takes` in arrival order)."""
        keys = self._keys(phase, base)
        if phase == self._phase[row]:
            slots = self._order[row, :self._held[row]].tolist()
            return {
                keys[slot]: self._states[sid]
                for slot, sid in zip(slots, self._sid[row, slots].tolist())
            }
        resolved: dict = {}
        if not self._future_count[row]:
            return resolved
        log = self._future[:self._future_used]
        chosen = (log[:, 0] == row) & (log[:, 1] == phase)
        for slot, sid in log[chosen, 2:].tolist():
            state = self._states[sid]
            if self._takes(state, resolved.get(keys[slot])):
                resolved[keys[slot]] = state
        return resolved

    def _drain(self, rows: np.ndarray) -> None:
        """Admit the buffered entries of the phase ``rows`` just entered,
        in arrival order, one entry per wave — the wave rule, so the own
        child's composed value yields only to strictly more coverage."""
        rows = rows[self._future_count[rows] > 0]
        if not len(rows):
            return
        entering = np.zeros(len(self._procs), dtype=bool)
        entering[rows] = True
        log = self._future[:self._future_used]
        row, __, slot, sid = self._take(
            entering[log[:, 0]] & (log[:, 1] == self._phase[log[:, 0]])
        )
        if len(row):
            by_row = np.argsort(row, kind="stable")
            self._waves(
                row[by_row], slot[by_row, None], sid[by_row, None],
                np.ones(len(row), dtype=np.int64),
            )

    # -- delivery --------------------------------------------------------
    def admit(self, engine, rows: np.ndarray, table_rows: np.ndarray,
              table: RowSnapshots):
        """Admit one delivered chunk; returns its push-pull answers.

        ``rows`` are the live receivers grouped by receiver (arrival
        order kept within each), ``table_rows`` the payload rows of
        ``table`` that arrived.  Returns ``None`` or ``(asked, answering
        rows, answers)``: ``asked`` indexes the request each answer
        row of the ``answers`` table replies to, ascending.
        """
        if not self._ready:
            self._begin()
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
        # ``(asked, rows, lengths, slots, sids)`` per wave that pulled.
        pulled = [] if self._push_pull and not table.reply else None
        arrived = table_rows[same]
        self._waves(
            rows[same], table.slots[arrived], table.sids[arrived],
            table.length[arrived], same, pulled,
        )
        if not pulled:
            return None
        asked, rows, length, slots, sids = (
            np.concatenate(column) for column in zip(*pulled)
        )
        by_arrival = np.argsort(asked, kind="stable")
        rows = rows[by_arrival]
        length, sids = length[by_arrival], sids[by_arrival]
        answers = self._table(
            True, rows, self._phase[rows], self._base[rows], length,
            slots[by_arrival], sids, self._sizes(length, sids),
        )
        return asked[by_arrival], rows, answers

    def receive(self, engine, row: int, payload):
        """Admit one scalar arrival into ``row``; returns its push-pull
        answer, or None.

        ``absorb_payloads``' rule, entry by entry, over what the row holds
        for the payload's phase (:meth:`_values`): an identical value is
        skipped, then come the screen, the take rule and the process's
        ``_placed``, which counts a refusal in ``refused``.  A request is
        answered with the row as it stands before the payload.
        """
        if not self._ready:
            self._begin()
        if isinstance(payload, GossipBatch):
            entries, request = payload.entries, not payload.reply
        elif isinstance(payload, GossipValue):
            entries, request = ((payload.key, payload.state),), False
        else:
            return None
        phase, answer = payload.phase, None
        row_phase = self._phase[row]
        if engine.terminated_rows[row] or phase < row_phase:
            return None
        values: dict = {}
        if phase <= self._num_phases:  # no key is placed past the last
            base = self._base_of(row, phase)
            values = self._values(row, phase, base)
        if phase == row_phase:
            self._recv[row] += 1
            if self._push_pull and request:
                answer = GossipBatch(
                    phase, tuple(values.items())[:self._cols], reply=True
                )
        proc = self._procs[row]
        screen = sanitize.SCREEN
        stored = []
        for key, state in entries:
            current = values.get(key)
            if current is state:
                continue
            if screen is not None and not screen(
                proc, engine.round, phase, key, state
            ):
                continue  # quarantined
            if not self._takes(state, current):
                continue
            if not proc._placed(phase, key, state):
                proc.refused += 1
                continue
            values[key] = state
            stored.append((self._slot_of(phase, base, key), state))
        if not stored:
            return answer
        slots, states = zip(*stored)
        sids = self._register(list(states))
        if phase > row_phase:
            self._buffer(np.full(len(sids), row), np.full(len(sids), phase),
                         slots, sids)
            return answer
        for slot, sid in zip(slots, sids):
            if not self._sid[row, slot]:  # a new key goes last
                self._order[row, self._held[row]] = slot
                self._held[row] += 1
            self._sid[row, slot] = sid
        self._touched[row] = True
        return answer

    def _takes(self, state: AggregateState, current) -> bool:
        """The take rule: a key not held, or — under
        ``prefer_coverage`` — strictly more coverage than ``current``."""
        return current is None or (
            self._prefer and state.members.count > current.members.count
        )

    def _waves(self, rows, slots, sids, length, asked=None,
               pulled=None) -> None:
        """Admit arrivals — receivers ``rows`` grouped, in arrival order;
        the first ``length`` of each one's ``(slots, sids)`` — in waves:
        wave ``w`` is every receiver's ``w``-th.  ``pulled`` collects the
        push-pull answers to them (``asked``: their chunk indices)."""
        count = len(rows)
        starts = _starts(rows)
        spans = np.diff(starts, append=count)
        self._recv[rows[starts]] += spans
        wave = np.arange(count) - np.repeat(starts, spans)
        by_wave = np.argsort(wave, kind="stable")
        rows, slots, sids = rows[by_wave], slots[by_wave], sids[by_wave]
        valid = np.arange(slots.shape[1]) < length[by_wave][:, None]
        counts = self._scount[sids]
        # Rows are addressed as cells of the flattened columns.
        first = rows * self._sid.shape[1]
        cells = first[:, None] + slots
        changed = np.zeros(count, dtype=bool)
        start = 0
        for stop in np.cumsum(np.bincount(wave)).tolist():
            if pulled is not None:
                pulled.append(self._pull(
                    rows[start:stop], asked[by_wave[start:stop]]
                ))
            changed[start:stop] = self._wave(
                rows[start:stop], first[start:stop], cells[start:stop],
                slots[start:stop], sids[start:stop], valid[start:stop],
                counts[start:stop],
            )
            start = stop
        changed = rows[changed]
        self._touched[changed] = True

    def _pull(self, rows, asked) -> tuple:
        """Push-pull answers: each row's first entries, as they are now
        (every live row holds at least its own value)."""
        length = np.minimum(self._held[rows], self._cols)
        slots = self._order[rows, :self._cols]
        sids = self._sid[rows[:, None], slots]
        sids[np.arange(self._cols) >= length[:, None]] = 0
        return asked, rows, length, slots, sids

    def _wave(self, rows, first, cells, slots, sids, valid,
              counts) -> np.ndarray:
        """One arrival per row (rows distinct; ``first`` is each row's
        first cell, ``cells`` its entries' cells); which rows changed."""
        flat = self._sid.reshape(-1)
        current = flat[cells]
        empty = valid & (current == 0)
        take = empty
        if self._prefer:
            take = empty | (valid & (counts > self._scount[current]))
        changed = take.any(axis=1)
        if not changed.any():
            return changed
        flat[cells[take]] = sids[take]
        if empty.any():
            # A new key goes after every key the row held, in entry order.
            held = self._held[rows]
            position = (first + held)[:, None] + empty.cumsum(axis=1) - 1
            self._order.reshape(-1)[position[empty]] = slots[empty]
            self._held[rows] = held + empty.sum(axis=1)
        return changed

    # -- one round -------------------------------------------------------
    def step(self, engine) -> None:
        if not self._ready:
            self._begin()
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
        # Snapshots draw over-cap subsets *after* the target draws —
        # the object engine's order within a member's stream.
        table = self._snapshot(rows)
        sender = np.repeat(np.arange(len(rows)), counts)
        engine.window_sends[rows] = counts
        engine.submit_block(
            engine.row_ids[rows][sender],
            dest_flat,
            table.sizes[sender],
            np.arange(total) - offsets[sender],
            sender,
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
        events: list | None = [] if self._sinks else None
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
        lone value is its own composition; a fixed-width aggregate folds
        its payload columns in insertion order; any other goes through
        ``merge_all``.  Under the runtime sanitizer each row's held
        values are checked before and its composition after — next to
        the compose, never in its place."""
        held = self._held[rows]
        ids = self._sid[rows[:, None], self._order[rows, :int(held.max())]]
        sanitized = sanitize.ACTIVE
        if sanitized:
            procs = [self._procs[row] for row in rows.tolist()]
            phases = self._phase[rows].tolist()
            for proc, phase, sids, count in zip(
                procs, phases, ids.tolist(), held.tolist()
            ):
                sanitize.check_held(
                    proc, round_number, phase,
                    [self._states[sid] for sid in sids[:count]],
                )
        composed = ids[:, 0].astype(np.int64)
        many = np.flatnonzero(held > 1)
        if len(many):
            composed[many] = self._fold(rows[many], ids[many], held[many])
        if sanitized:
            for proc, phase, sid in zip(procs, phases, composed.tolist()):
                sanitize.check_compose(proc, round_number, phase,
                                       self._states[sid])
                sanitize.check_phase_bump(proc, round_number, phase,
                                          phase + 1)
        return composed

    def _fold(self, rows: np.ndarray, ids: np.ndarray,
              held: np.ndarray) -> list:
        """Compose rows holding several values: ``ids[i, :held[i]]``."""
        if not self._pay:
            return self._register([
                self._function.merge_all(
                    [self._states[sid] for sid in sids[:count]]
                )
                for sids, count in zip(ids.tolist(), held.tolist())
            ])
        total = (self._scount[ids]
                 * (np.arange(ids.shape[1]) < held[:, None])).sum(axis=1)
        columns = self._function.fold_columns(self._pay, ids, held)
        built = [
            AggregateState(payload, mask) for payload, mask in zip(
                self._function.column_payloads(columns),
                self._masks(rows, total),
            )
        ]
        return self._register(built, columns)

    def _masks(self, rows: np.ndarray, total: np.ndarray) -> list:
        """The composed coverage of ``rows`` (``total`` ranks each): the
        held masks in slot order, adjacent ranges merged, or — for a row
        covering its whole subtree — that subtree's one range, shared."""
        width = self._k ** (self._phase[rows] - 1)
        first_box = self._box[rows] // width * width
        start = self._rank_start[first_box]
        stop = self._rank_start[first_box + width]
        masks = []
        for bounds, whole, sid_row in zip(
            zip(start.tolist(), stop.tolist()),
            (total == stop - start).tolist(), self._sid[rows].tolist(),
        ):
            if not whole:
                masks.append(IntervalMask.concat(
                    self._states[sid].members for sid in sid_row if sid
                ))
                continue
            if bounds not in self._full_masks:
                self._full_masks[bounds] = IntervalMask(range(*bounds))
            masks.append(self._full_masks[bounds])
        return masks

    def _finalize(self, engine, rows, composed, events) -> None:
        """The final phase composed: the process gets its result,
        coverage, the phase past the last, and terminates."""
        states = self._states
        coverage = self._scount[composed] / self._members
        for row, sid, covered in zip(
            rows.tolist(), composed.tolist(), coverage.tolist()
        ):
            proc = self._procs[row]
            proc.phase = self._num_phases + 1
            proc.result = states[sid]
            proc.coverage_fraction = covered
            proc.terminated = True
            engine._note_terminate(proc)
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
        """Hand every sink its block of this round's events: sorted by
        row (stably), so each row's stay in cascade order."""
        kinds, rows, phases, coverage, missing = (
            np.concatenate(column) for column in zip(*events)
        )
        order = np.argsort(rows, kind="stable")
        columns = (
            kinds[order], self._ids[rows[order]], phases[order],
            self._box[rows[order]] // self._k ** (phases[order] - 1),
            coverage[order], missing[order],
        )
        resolve = partial(self._resolve, gone)
        sink_of = self._sink_of[rows[order]]
        for index, sink in enumerate(self._sinks):
            mine = sink_of == index
            if mine.any():
                sink.emit_block(PhaseBlock(
                    round_number, *(column[mine] for column in columns),
                    self._label, resolve,
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
        cols = self._cols
        held = self._held[rows]
        length = np.minimum(held, cols)
        positions = np.empty((len(rows), cols), dtype=np.int64)
        positions[:] = np.arange(cols)
        over = held > self._cap
        if over.any():
            positions[over] = _floyd(
                self._bank.draw_matrix(rows[over], cols), held[over], cols
            )
        slots = self._order[rows[:, None], positions]
        sids = self._sid[rows[:, None], slots]
        sids[np.arange(cols) >= length[:, None]] = 0
        return self._table(
            False, rows, self._phase[rows], self._base[rows], length,
            slots, sids, self._sizes(length, sids),
        )

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
