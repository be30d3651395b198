"""The array stepper's admission of a columnar row equals ``absorb_payloads``.

The array stepper admits a delivered chunk in waves over its columnar
rows, and a scalar arrival entry by entry into its row
(:mod:`repro.core.array_stepper`); the object engine hands the same
arrivals to ``HierarchicalGossipProcess.absorb_payloads`` one after the
other.  These properties feed one member random arrival sequences —
same, past and future phase (and the phase past the last); repeated,
new and replaced keys; better, equal and worse coverage;
``prefer_coverage`` on and off; push-pull requests and replies; for
scalar arrivals also single values, keys the hierarchy does not place,
duplicate keys in one batch and a screen that quarantines — through
both, and require the same keys in the same insertion order holding the
same state objects, the same changed flag, ``_phase_received``, phase
buffers, answers, refusals and screen calls.  The row is seeded from
and read back as its twin process (``tests/stepper_rows.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sanitize as sanitize
from repro.core.aggregates import AggregateState, AverageAggregate
from repro.core.array_stepper import HierarchicalArrayStepper
from repro.core.gridbox import GridAssignment, GridBoxHierarchy, SubtreeId
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.intervals import IntervalMask
from repro.core.messages import GossipBatch, GossipValue
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from tests.stepper_rows import read_row, seed_row

N, K = 64, 4
ASSIGNMENT = GridAssignment(GridBoxHierarchy(N, K), range(N), FairHash())
PHASES = ASSIGNMENT.hierarchy.num_phases
#: A member whose box holds more than K votes (phase-1 batches over the
#: cap exist) — the row under test.
MEMBER = next(
    member for member in ASSIGNMENT.member_ids
    if len(ASSIGNMENT.members_of_box(ASSIGNMENT.box_of(member))) > K
)


def _keys(phase: int) -> list:
    """The keys a phase-``phase`` payload to ``MEMBER`` can carry: its
    box mates, or the occupied children of its phase subtree."""
    if phase == 1:
        return list(ASSIGNMENT.members_of_box(ASSIGNMENT.box_of(MEMBER)))
    subtree = ASSIGNMENT.subtree_of(MEMBER, phase)
    return list(ASSIGNMENT.occupied_children(subtree))


def _ranks(phase: int, key) -> range:
    """The ranks a state under ``key`` may cover: the box mate's own in
    phase 1, the child's rank range later."""
    if phase == 1:
        rank = ASSIGNMENT.rank_of(key)
        return range(rank, rank + 1)
    return ASSIGNMENT.subtree_rank_range(key)


def _state(ranks: range, salt: int) -> AggregateState:
    return AggregateState((float(salt), len(ranks)), IntervalMask(ranks))


#: Per (phase, key index): three states inside the key's ranks — in
#: later phases two of them with equal counts, so repeats (same object),
#: ties and strict improvements all occur (phase-1 states all tie).
#: Salts end in 0, 3 or 6.
POOL = {
    (phase, index): [
        _state(ranks[:1], 1000 * phase + 10 * index),
        _state(ranks[:2], 1000 * phase + 10 * index + 3),
        _state(ranks[-2:], 1000 * phase + 10 * index + 6),
    ]
    for phase in range(1, PHASES + 1)
    for index, key in enumerate(_keys(phase))
    for ranks in [_ranks(phase, key)]
}


def _unplaced(phase: int) -> list:
    """Entries the hierarchy does not place under their key for
    ``MEMBER`` in ``phase``: a key from another box or subtree (or one
    level too deep), and a placed key over another key's ranks.  Every
    entry of the phase past the last.  Salts end in 1 or 4."""
    salt = 1000 * phase + 500
    if phase > PHASES:
        return [
            (SubtreeId(0, 0), _state(range(N), salt + 1)),
            (_keys(PHASES)[0], POOL[(PHASES, 0)][0]),
        ]
    keys = _keys(phase)
    if phase == 1:
        stranger = next(m for m in ASSIGNMENT.member_ids if m not in keys)
        foreign = [(stranger, _state(_ranks(1, stranger), salt + 1))]
    else:
        length, value = keys[0]
        deeper = SubtreeId(length + 1, value * K)
        foreign = [(deeper, _state(_ranks(phase, keys[0]), salt + 1))]
        others = [
            child
            for member in ASSIGNMENT.member_ids
            if ASSIGNMENT.subtree_of(member, phase)
            != ASSIGNMENT.subtree_of(MEMBER, phase)
            for child in [ASSIGNMENT.subtree_of(member, phase - 1)]
        ]
        if others:
            foreign.append(
                (others[0], _state(_ranks(phase, others[0]), salt + 11))
            )
    # ``keys[0]``'s key over ``keys[1]``'s ranks (a box mate's rank).
    return foreign + [(keys[0], _state(_ranks(phase, keys[1]), salt + 4))]


UNPLACED = {phase: _unplaced(phase) for phase in range(1, PHASES + 2)}

entries = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 2)), max_size=6,
)
arrivals = st.lists(
    st.tuples(st.integers(-1, 1), st.booleans(), entries),
    min_size=1, max_size=8,
)


def _world(params: GossipParams, phase: int, known=None, future=None):
    """``MEMBER``'s row in an array engine, and a twin process; both in
    ``phase`` holding ``known`` (default: its own value) and the
    ``future`` buffer."""
    votes = {member: float(member) for member in range(N)}
    function = AverageAggregate()
    group = build_hierarchical_gossip_group(
        votes, function, ASSIGNMENT, params
    )
    twin = build_hierarchical_gossip_group(
        votes, function, ASSIGNMENT, params
    )[MEMBER]
    engine = ArraySteppedEngine(
        stepper=HierarchicalArrayStepper(),
        network=Network(max_message_size=1 << 20), rngs=RngRegistry(0),
    )
    engine.add_processes(group)
    engine._bind()  # rows, then the stepper
    stepper = engine._stepper
    for proc in group + [twin]:
        proc.on_start(engine._ctx)
    stepper._begin()
    twin.phase = phase
    if phase > 1:
        own = ASSIGNMENT.subtree_of(MEMBER, phase - 1)
        twin.known = {own: _state(ASSIGNMENT.subtree_rank_range(own), 7)}
    for key, state in (known or {}).items():
        twin.known.setdefault(key, state)
    twin._future = future or {}
    seed_row(stepper, MEMBER, twin)
    return engine, stepper, group[MEMBER], twin


def _payloads(row_phase: int, drawn) -> list[GossipBatch]:
    payloads = []
    for shift, reply, picks in drawn:
        phase = min(3, max(1, row_phase + shift))
        keys = _keys(phase)
        chosen = {}
        for key_pick, state_pick in picks:
            index = key_pick % len(keys)
            chosen.setdefault(index, POOL[(phase, index)][state_pick])
        payloads.append(GossipBatch(phase, tuple(
            (keys[index], state) for index, state in chosen.items()
        ), reply=reply))
    return payloads


def _table(stepper, payloads):
    """The payloads as a snapshot table, slots from the stepper's own
    key→slot rule (keys are read back through its slot→key rule)."""
    width = max(1, max(len(p.entries) for p in payloads))
    count = len(payloads)
    slots = np.zeros((count, width), dtype=np.int32)
    sids = np.zeros((count, width), dtype=np.int32)
    bases = []
    for row, payload in enumerate(payloads):
        if payload.phase == 1:
            base = ASSIGNMENT.subtree_rank_range(
                ASSIGNMENT.subtree_of(MEMBER, 1)
            ).start
        else:
            base = ASSIGNMENT.subtree_of(MEMBER, payload.phase)[1] * K
        bases.append(base)
        for column, (key, state) in enumerate(payload.entries):
            slots[row, column] = stepper._slot_of(payload.phase, base, key)
            sids[row, column] = stepper._register([state])[0]
    replies = {p.reply for p in payloads}
    assert len(replies) == 1  # a table is all requests or all answers
    return stepper._table(
        replies.pop(), np.full(count, MEMBER),
        np.array([p.phase for p in payloads]), np.array(bases),
        np.array([len(p.entries) for p in payloads]), slots, sids,
        np.array([p.wire_size() for p in payloads]),
    )


def _assert_answer(mine, theirs) -> None:
    """A row's push-pull answer is its twin's: phase, keys in order and
    the same state objects."""
    assert (mine.phase, mine.reply) == (theirs.phase, True)
    assert [k for k, __ in mine.entries] == [k for k, __ in theirs.entries]
    assert all(
        a is b for (__, a), (__, b) in zip(mine.entries, theirs.entries)
    )


def _assert_row_is_twin(stepper, twin) -> None:
    row = read_row(stepper, MEMBER)
    assert list(row.known) == list(twin.known)
    assert all(row.known[key] is twin.known[key] for key in twin.known)
    assert row._phase_received == twin._phase_received
    assert list(row._future) == list(twin._future)
    for phase, buffered in twin._future.items():
        assert list(row._future[phase]) == list(buffered)
        assert all(
            row._future[phase][key] is state
            for key, state in buffered.items()
        )


@given(
    row_phase=st.sampled_from([1, 2]),
    prefer=st.booleans(),
    push_pull=st.booleans(),
    drawn=arrivals,
)
@settings(max_examples=150, deadline=None)
def test_waves_admit_like_absorb_payloads(row_phase, prefer, push_pull,
                                          drawn):
    params = GossipParams(prefer_coverage=prefer, push_pull=push_pull)
    engine, stepper, __, twin = _world(params, row_phase)
    payloads = _payloads(row_phase, drawn)
    # One chunk per reply flag: a table is all requests or all answers.
    for reply in (False, True):
        share = [p for p in payloads if p.reply == reply]
        if not share:
            continue
        stepper._touched[:] = False
        table = _table(stepper, share)
        answered = stepper.admit(
            engine, np.full(len(share), MEMBER), np.arange(len(share)),
            table,
        )
        expected: list = []
        changed = twin.absorb_payloads(share, engine.round, expected)
        assert bool(stepper._touched[MEMBER]) == changed
        if answered is None:
            assert expected == []
        else:
            asked, answering, answers = answered
            assert (answering == MEMBER).all()
            got = answers.payloads(list(range(len(asked))))
            assert [int(a) for a in asked] == [pos for pos, __ in expected]
            for mine, (__, theirs) in zip(got, expected):
                _assert_answer(mine, theirs)
    assert twin.refused == 0  # the pool holds only placed entries
    _assert_row_is_twin(stepper, twin)


#: (key pick, state pick) of one entry: states 0-2 are the pool's, 3 an
#: unplaced entry of the payload's phase.
scalar_entries = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 3)), min_size=1,
    max_size=6,
)
scalar_arrivals = st.lists(
    st.tuples(
        st.sampled_from(["value", "request", "reply"]),
        st.integers(-1, 2), scalar_entries,
    ),
    min_size=1, max_size=10,
)
#: Pool picks (phase shift, key pick, state pick) held or buffered at
#: the start — enough to fill a phase-1 row past the batch cap.
held = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 2]), st.integers(0, 15),
        st.integers(0, 2),
    ),
    max_size=10,
)


def _entry(phase: int, key_pick: int, state_pick: int) -> tuple:
    if phase > PHASES or state_pick == 3:
        unplaced = UNPLACED[phase]
        return unplaced[key_pick % len(unplaced)]
    keys = _keys(phase)
    index = key_pick % len(keys)
    return keys[index], POOL[(phase, index)][state_pick]


def _scalar(row_phase: int, kind: str, shift: int, picks):
    phase = min(PHASES + 1, max(1, row_phase + shift))
    chosen = tuple(_entry(phase, *pick) for pick in picks)
    if kind == "value":
        return GossipValue(phase, *chosen[0])
    return GossipBatch(phase, chosen, reply=kind == "reply")


@given(
    row_phase=st.sampled_from(range(1, PHASES + 1)),
    prefer=st.booleans(),
    push_pull=st.booleans(),
    start=held,
    quarantined=st.sets(st.sampled_from([0, 1, 3, 4, 6]), max_size=2),
    drawn=scalar_arrivals,
)
@settings(max_examples=300, deadline=None)
def test_scalar_admission_is_absorb_payloads(
    row_phase, prefer, push_pull, start, quarantined, drawn,
):
    known: dict = {}
    future: dict = {}
    for shift, key_pick, state_pick in start:
        phase = row_phase + shift
        if phase <= PHASES:
            key, state = _entry(phase, key_pick, state_pick)
            bucket = known if phase == row_phase else future.setdefault(
                phase, {}
            )
            bucket.setdefault(key, state)
    engine, stepper, proc, twin = _world(
        GossipParams(prefer_coverage=prefer, push_pull=push_pull),
        row_phase, known, future,
    )
    engine.round = 5
    calls: dict = {proc: [], twin: []}

    def screen(process, round_number, phase, key, state):
        calls[process].append((round_number, phase, key, id(state)))
        return int(state.payload[0]) % 10 not in quarantined

    saved = sanitize.SCREEN
    sanitize.SCREEN = screen
    try:
        for kind, shift, picks in drawn:
            payload = _scalar(row_phase, kind, shift, picks)
            stepper._touched[:] = False
            answer = stepper.receive(engine, MEMBER, payload)
            expected: list = []
            changed = twin.absorb_payloads((payload,), engine.round, expected)
            assert bool(stepper._touched[MEMBER]) == changed
            if answer is None:
                assert expected == []
            else:
                [(position, theirs)] = expected
                assert position == 0
                _assert_answer(answer, theirs)
            assert proc.refused == twin.refused
            assert calls[proc] == calls[twin]
            _assert_row_is_twin(stepper, twin)
    finally:
        sanitize.SCREEN = saved
