"""Columnar round stepping for :class:`HierarchicalGossipProcess` groups.

:class:`HierarchicalArrayStepper` plugs into
:class:`~repro.sim.array_engine.ArraySteppedEngine` and keeps what a
round reads and writes as columns, one *row* per member.  The paper
keeps per-member state constant — at most ``K`` child aggregates per
phase (Section 6.3) — and a row is exactly that:

* **Known values** — a row's current-phase ``known`` is a key *slot*
  per value (phase 1: the member's hierarchy rank minus its box's first
  rank; phase ``i > 1``: the child subtree's digit), the id of the value
  in one run-wide table of :class:`~repro.core.aggregates.AggregateState`
  objects (coverage count and wire size are columns of that table), and
  the slots in insertion order.  Counts and ranges travel upward, never
  member objects.
* **Admission** (:meth:`~HierarchicalArrayStepper.admit`) — a delivered
  chunk is admitted in *waves*: wave ``w`` takes the ``w``-th same-phase
  arrival of every receiver at once.  That is ``absorb_payloads``'
  sequential rule exactly: a past-phase value is ignored; per key a
  strictly greater coverage wins (the first arrival, under
  ``prefer_coverage=False``); a key keeps the position of its first
  insertion; every same-phase arrival counts toward ``_phase_received``;
  a push-pull answer is the receiver's row as it stood before the wave.
* **Payloads** (:class:`RowSnapshots`) — a send block carries snapshots
  of the sender rows, not ``GossipBatch`` objects.  A row over the batch
  cap sends a Floyd subset drawn from its gossip stream after its target
  draws; wire sizes are sums over the state-size column.
* **Advance** — completion is an array test (every expected slot is
  held and every held count covers that child's members), so the
  process's own ``_maybe_advance`` runs only for rows that can bump, time
  out or reach the final deadline.  Compose, phase events and sanitizer
  checks stay the process's code.

**The process is a view.**  A row's ``known`` dict is made current
(materialised) only where process code reads it — before
``_maybe_advance`` and before the process's own admission — and read
back when that code changed it, above all at a phase boundary.  In
between, the dict is stale.  Admission has two shapes:

* waves, for same-phase chunk arrivals — snapshots of rows that were
  themselves admitted;
* ``absorb_payloads`` on the materialised row, for future-phase
  arrivals (they land in the phase buffer, which only the next phase
  entry reads) and scalar ones (injections, per-message-planned sends:
  objects from outside the block path, possibly forged).

Structural admission (``absorb_payloads`` refuses any entry its
hierarchy does not place under its key) means every held key has a
slot.  While :data:`repro.sanitize.SCREEN` is armed the engine
dispatches a chunk as its messages (``per_message``), so the screen
inspects each entry in arrival order.

**Bit-identity argument.**  Per-member gossip streams are independent,
so batching target draws across members never changes any member's
values.  Within a member, the object engine draws targets first, then
any batch-subset doubles — the stepper does the same.  Sends are
assembled in member (row) order with picks in draw order, so the shared
network loss stream is consumed in the object engine's exact send
order.  Receivers never touch each other's state during delivery, so
admitting them side by side in waves is admitting them one after the
other; within a receiver the waves keep arrival order.  Running all
sends before all advances is order-equivalent because a member's
advance mutates only its own state and sends nothing: the one send a
member makes outside its own gossip step is a push-pull reply, and on
both engines that is planned during *delivery* — before any member
steps.  Skipping ``_maybe_advance`` on a row that is neither complete,
timed out nor at its deadline skips a call that returns without
effect.  The cross-engine golden suite pins all of this.

Supported configurations — enforced by :meth:`bind` and summarized by
:func:`unsupported_reason`: batch-mode hierarchical gossip.  Everything
else (networks, failure models, chaos campaigns, partial views, start
waves, phase sinks, push-pull, partial representation with final-phase
retransmission, adaptive deadlines) is supported.
"""

from __future__ import annotations

import weakref

import numpy as np

import repro.sanitize as sanitize
from repro.core.gridbox import SubtreeId
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
)
from repro.core.messages import ID_SIZE, GossipBatch
from repro.sim.sampling import BANK_BLOCK, SamplerBank

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
        self._ctx = None
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
            ):
                raise ValueError(
                    "array stepping requires a homogeneous group "
                    "(shared GossipParams and hierarchy)"
                )
        n = len(procs)
        params = first.params
        assignment = first.assignment
        hierarchy = assignment.hierarchy
        self._procs = procs
        self._ctx = engine._ctx
        self._assignment = assignment
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
        self._phase = np.ones(n, dtype=np.int64)
        self._phase_rounds = np.zeros(n, dtype=np.int64)
        self._start_round = np.fromiter(
            (p.start_round for p in procs), dtype=np.int64, count=n
        )
        self._spread = bool((self._start_round > 0).any())
        #: Per-row ``_is_representative()`` of the current phase, and the
        #: final-phase rounds at which sidelined members send anyway.
        self._all_rep = params.representative_fraction >= 1.0
        self._is_rep = np.ones(n, dtype=bool)
        self._retransmit_rounds = sorted(first._retransmit_rounds)
        # Flattened gossipee pools: members of one subtree share one
        # pool tuple (the assignment caches them), so each distinct
        # tuple is materialized once into ``_pool_data`` and rows point
        # at its segment.  The segment dict pins the tuples, keeping
        # ``id`` keys sound.
        self._pool_offset = np.zeros(n, dtype=np.int64)
        self._pool_size = np.zeros(n, dtype=np.int64)  # excludes self
        self._own_index = np.full(n, _NO_SELF, dtype=np.int64)
        self._pool_data = np.empty(max(1024, 2 * n), dtype=np.int64)
        self._pool_used = 0
        self._segments: dict[int, tuple[int, tuple]] = {}
        # Each row's grid box and the box's first rank (the phase-1 key
        # base); the largest box bounds the phase-1 slots.
        spans: dict[int, range] = {}
        self._box: list[int] = []
        self._box_start: list[int] = []
        for proc in procs:
            box = assignment.box_of(proc.node_id)
            ranks = spans.get(box)
            if ranks is None:
                ranks = spans[box] = assignment.subtree_rank_range(
                    SubtreeId(hierarchy.digits, box)
                )
            self._box.append(box)
            self._box_start.append(ranks.start)
        width = max(self._k, max(map(len, spans.values())))
        #: Entries a snapshot row can hold (batch cap, bounded by slots).
        self._cols = min(self._cap, width)
        # The columnar ``known``: per row and slot a state id (0 = not
        # held), slots in insertion order, the count held, and the key
        # base the slots count from.
        self._sid = np.zeros((n, width), dtype=np.int32)
        self._order = np.zeros((n, width), dtype=np.min_scalar_type(width))
        self._held = np.zeros(n, dtype=np.int32)
        self._base = np.zeros(n, dtype=np.int32)
        #: The process's ``known`` dict equals the row.
        self._synced = np.zeros(n, dtype=bool)
        #: The row changed since its last completion test.
        self._touched = np.zeros(n, dtype=bool)
        #: Same-phase arrivals not yet added to ``_phase_received``.
        self._received = np.zeros(n, dtype=np.int32)
        # The run-wide state table; id 0 is "no state".  A state stays
        # until a sweep (:meth:`_sweep`) finds no row or queued table
        # naming its id.
        self._states: list = [None]
        self._scount = np.zeros(max(1024, 2 * n), dtype=np.int32)
        self._ssize = np.zeros(max(1024, 2 * n), dtype=np.int32)
        self._free: list[int] = []
        #: Payload tables built and not yet dropped by the engine.
        self._tables: list[weakref.ref] = []
        #: Registrations left before the next sweep.
        self._sweep_in = max(1024, n // 2)
        self._key_cache: dict[tuple[int, int], tuple] = {}
        # Completion groups: one per shared expected-key set, as a slot
        # mask and the coverage each slot's child needs.
        self._group = np.zeros(n, dtype=np.int32)
        self._groups: dict[tuple, int] = {}
        self._group_pins: list[frozenset] = []
        self._group_expected = np.zeros((64, width), dtype=bool)
        self._group_need = np.zeros((64, width), dtype=np.int32)
        self._ready = False
        rngs = engine.rngs
        self._bank = SamplerBank(
            (rngs.stream("process", p.node_id, "gossip") for p in procs),
            block=max(BANK_BLOCK, self._fanout, self._cols),
        )

    def _begin(self) -> None:
        """Read every process into its row (``on_start`` has run)."""
        self._ready = True
        self._enter(list(range(len(self._procs))))

    # -- rows and the state table ---------------------------------------
    def _intern_pool(self, pool: tuple) -> int:
        """Segment offset of ``pool`` in the flat table (interned)."""
        segment = self._segments.get(id(pool))
        if segment is not None:
            return segment[0]
        size = len(pool)
        used = self._pool_used
        data = self._pool_data
        if used + size > len(data):
            grown = np.empty(
                max(2 * len(data), used + size), dtype=np.int64
            )
            grown[:used] = data[:used]
            self._pool_data = data = grown
        data[used:used + size] = pool
        self._pool_used = used + size
        self._segments[id(pool)] = (used, pool)
        return used

    def _register(self, states: list) -> list[int]:
        """Table ids for ``states`` (one new id each, freed ids first).

        A state loaded twice gets two ids: admission compares coverage
        counts, and both ids read back as the same object.
        """
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
        self._ssize[sids] = [state.wire_size() for state in states]
        self._sweep_in -= len(states)
        return sids

    def _table(self, *columns, **kwargs) -> RowSnapshots:
        """A new payload table, tracked until the engine drops it."""
        table = RowSnapshots(self, *columns, **kwargs)
        self._tables.append(weakref.ref(table))
        return table

    def _sweep(self, engine) -> None:
        """Free the table states that nothing can read any more.

        A state id is read from a row of a live member and from a
        payload table still queued (or being delivered); every other id
        is dropped, so the table holds about what the object engine's
        ``known`` dicts and payloads would.
        """
        states = self._states
        live = np.zeros(len(states), dtype=bool)
        live[self._sid[~engine.terminated_rows]] = True
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
        """The slot of a held ``key`` in a row of this phase and base
        (admission placed it in the row's box or subtree)."""
        return (self._rank_of(key) if phase == 1 else key[1]) - base

    def _group_of(
        self, proc: HierarchicalGossipProcess, phase: int, base: int,
    ) -> int:
        """Completion group of a member entering ``phase``.

        A complete view expects every member of its box / every occupied
        child of its subtree, which ``(phase, base)`` names; a partial
        view brings its own expected-key set.
        """
        key: tuple = (
            (phase, base) if proc._complete_view
            else ("view", id(proc._expected_keys(phase)))
        )
        group = self._groups.get(key)
        if group is not None:
            return group
        expected = proc._expected_keys(phase)
        group = self._groups[key] = len(self._group_pins)
        self._group_pins.append(expected)
        self._group_expected = _room(self._group_expected, group + 1)
        self._group_need = _room(self._group_need, group + 1)
        mask = self._group_expected[group]
        mask[:] = False
        # Expected keys are box members or child subtrees: all slotted.
        mask[[self._slot_of(phase, base, key) for key in expected]] = True
        need = self._group_need[group]
        need[:] = 0
        if phase > 1 and proc._complete_view:
            members_in = self._assignment.members_in_subtree
            for digit, child in enumerate(self._keys(phase, base)):
                need[digit] = len(members_in(child))
        return group

    def _enter(self, rows: list[int]) -> None:
        """Resync rows whose process entered a phase (or at the start)."""
        procs = self._procs
        k = self._k
        phases, rounds, offsets, sizes, owns, reps, bases, groups = (
            [], [], [], [], [], [], [], []
        )
        for row in rows:
            proc = procs[row]
            phase = proc.phase
            pool, own_index = proc._peers_for_phase(phase)
            offsets.append(self._intern_pool(pool))
            if own_index is None:
                owns.append(_NO_SELF)
                sizes.append(len(pool))
            else:
                owns.append(own_index)
                sizes.append(len(pool) - 1)
            phases.append(phase)
            rounds.append(proc.phase_rounds)
            reps.append(self._all_rep or proc._is_representative())
            if phase == 1:
                base = self._box_start[row]
            else:
                base = self._box[row] // k ** (phase - 1) * k
            bases.append(base)
            groups.append(self._group_of(proc, phase, base))
        index = np.asarray(rows, dtype=np.int64)
        self._pool_offset[index] = offsets
        self._pool_size[index] = sizes
        self._own_index[index] = owns
        self._phase[index] = phases
        self._phase_rounds[index] = rounds
        self._is_rep[index] = reps
        self._base[index] = bases
        self._group[index] = groups
        self._load(rows, phases, bases)

    def _load(self, rows: list[int], phases=None, bases=None) -> None:
        """Read these rows' ``known`` dicts into their columns."""
        if phases is None:
            phases = self._phase[rows].tolist()
            bases = self._base[rows].tolist()
        procs = self._procs
        at_row: list[int] = []
        at_pos: list[int] = []
        at_slot: list[int] = []
        at_state: list = []
        held: list[int] = []
        for row, phase, base in zip(rows, phases, bases):
            known = procs[row].known
            slots = [self._slot_of(phase, base, key) for key in known]
            held.append(len(slots))
            at_row.extend([row] * len(slots))
            at_pos.extend(range(len(slots)))
            at_slot.extend(slots)
            at_state.extend(known.values())
        index = np.asarray(rows, dtype=np.int64)
        self._sid[index] = 0
        if at_row:
            self._sid[at_row, at_slot] = self._register(at_state)
            self._order[at_row, at_pos] = at_slot
        self._held[index] = held
        self._synced[index] = True
        self._touched[index] = True

    def _sync(self, rows: np.ndarray) -> None:
        """Make these rows' processes current before their own code
        reads them: ``known`` rebuilt from the row where it changed,
        the row's same-phase arrivals added to ``_phase_received``."""
        procs = self._procs
        stale = rows[~self._synced[rows]]
        if len(stale):
            held = self._held[stale]
            slots = self._order[stale, :int(held.max())]
            sids = self._sid[stale[:, None], slots]
            states = self._states
            for row, count, phase, base, slot_row, sid_row in zip(
                stale.tolist(), held.tolist(), self._phase[stale].tolist(),
                self._base[stale].tolist(), slots.tolist(), sids.tolist(),
            ):
                keys = self._keys(phase, base)
                proc = procs[row]
                proc.known = {
                    keys[slot]: states[sid]
                    for slot, sid in zip(slot_row[:count], sid_row[:count])
                }
                proc._known_version += 1  # stale payload memos
            self._synced[stale] = True
        received = self._received[rows]
        owed = np.flatnonzero(received)
        if len(owed):
            for row, count in zip(rows[owed].tolist(),
                                  received[owed].tolist()):
                procs[row]._phase_received += count
            self._received[rows] = 0

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
        held = sids != 0
        group = self._group[rows]
        short = (self._group_expected[group] & ~held) | (
            held & (self._scount[sids] < self._group_need[group])
        )
        return ~short.any(axis=1)

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
            self._buffer(rows[future], table_rows[future], table,
                         engine.round)
        same = np.flatnonzero(live & (arrival_phase == row_phase))
        if not len(same):
            return None
        # ``(asked, rows, lengths, slots, sids)`` per wave that pulled.
        pulled: list[tuple] = []
        self._waves(rows[same], table_rows[same], table, same, pulled)
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

    def receive(self, engine, row: int, payload, answers: list) -> None:
        """Admit one scalar arrival through the process's own code."""
        if not self._ready:
            self._begin()
        proc = self._procs[row]
        if proc.result is not None:
            return
        self._sync(np.array([row]))
        if proc.absorb_payloads((payload,), engine.round, answers):
            self._load([row])

    @property
    def per_message(self) -> bool:
        """Whether a delivered chunk must reach admission message by
        message: an armed :data:`repro.sanitize.SCREEN` inspects every
        entry in arrival order, through :meth:`receive`."""
        return sanitize.SCREEN is not None

    def _buffer(self, rows, table_rows, table, round_number) -> None:
        """Future-phase arrivals into their receivers' phase buffers."""
        cuts = _starts(rows).tolist()
        procs = self._procs
        payloads = table.payloads(table_rows.tolist())
        for start, stop in zip(cuts, cuts[1:] + [len(rows)]):
            procs[int(rows[start])].absorb_payloads(
                payloads[start:stop], round_number
            )

    def _waves(self, rows, table_rows, table, asked, pulled) -> None:
        """Admit same-phase arrivals (grouped by receiver, chunk indices
        ``asked``) in waves: wave ``w`` is every receiver's ``w``-th."""
        count = len(rows)
        starts = _starts(rows)
        spans = np.diff(starts, append=count)
        self._received[rows[starts]] += spans
        wave = np.arange(count) - np.repeat(starts, spans)
        by_wave = np.argsort(wave, kind="stable")
        rows, table_rows, asked = (
            rows[by_wave], table_rows[by_wave], asked[by_wave]
        )
        slots = table.slots[table_rows]
        sids = table.sids[table_rows]
        valid = np.arange(slots.shape[1]) < table.length[table_rows][:, None]
        counts = self._scount[sids]
        # Rows are addressed as cells of the flattened columns.
        first = rows * self._sid.shape[1]
        cells = first[:, None] + slots
        pulling = self._push_pull and not table.reply
        changed = np.zeros(count, dtype=bool)
        start = 0
        for stop in np.cumsum(np.bincount(wave)).tolist():
            if pulling:
                pulled.append(self._pull(rows[start:stop], asked[start:stop]))
            changed[start:stop] = self._wave(
                rows[start:stop], first[start:stop], cells[start:stop],
                slots[start:stop], sids[start:stop], valid[start:stop],
                counts[start:stop],
            )
            start = stop
        changed = rows[changed]
        self._touched[changed] = True
        self._synced[changed] = False

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
        procs = self._procs
        round_number = engine.round
        stepped = engine.alive_rows & ~engine.terminated_rows
        if self._spread:
            stepped &= self._start_round <= round_number
        # ---- sends: member-major, picks in draw order ----------------
        senders = stepped & (self._pool_size >= 1)
        if not self._all_rep:
            # ``_gossip``'s gate: a representative, or ``_retransmit_due``.
            senders &= self._is_rep | (
                (self._phase >= self._num_phases)
                & np.isin(self._phase_rounds, self._retransmit_rounds)
            )
        rows = np.flatnonzero(senders)
        if len(rows):
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
        # ---- clocks and advance candidates ---------------------------
        self._phase_rounds[stepped] += 1
        phases = self._phase
        final = phases >= self._num_phases
        candidates = (self._phase_rounds >= self._rpp) & ~final
        candidates |= final & (
            round_number - self._start_round + 1 >= self._deadline
        )
        if self._early_bump:
            ready = np.flatnonzero(self._touched & stepped & ~final)
            if len(ready):
                candidates[ready[self._complete(ready)]] = True
        self._touched &= ~stepped
        candidates &= stepped
        rows = np.flatnonzero(candidates)
        if not len(rows):
            return
        self._sync(rows)
        ctx = self._ctx
        moved: list[int] = []
        for row, phase, rounds in zip(
            rows.tolist(), phases[rows].tolist(),
            self._phase_rounds[rows].tolist(),
        ):
            proc = procs[row]
            proc.phase_rounds = rounds
            ctx.current = proc
            proc._maybe_advance(ctx)
            ctx.current = None
            if proc.result is None and proc.phase != phase:
                moved.append(row)
        if moved:
            self._enter(moved)

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
