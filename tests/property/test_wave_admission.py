"""The array stepper's admission of a columnar row equals ``absorb_payloads``.

The array stepper admits a delivered chunk in one pass over the
(row, slot) cells of its columnar rows
(:mod:`repro.core.array_stepper`); the object engine hands the
same arrivals to ``HierarchicalGossipProcess.absorb_payloads`` one
after the other.  These properties feed one member random arrival
sequences — batches, or single values as one-entry rows cut into
chunks; same, past and future phase; repeated, new and replaced keys;
better, equal and worse coverage; ``prefer_coverage`` on and off;
push-pull requests and replies (a single value asks for none) —
through both, and require the same keys in the same insertion order
holding equal states, the same changed flag,
``_phase_received``, phase buffers and answers.  The row is seeded from
and read back as its twin process (``tests/stepper_rows.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateState, AverageAggregate
from repro.core.array_stepper import HierarchicalArrayStepper
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
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
    ).materialize()[MEMBER]
    engine = ArraySteppedEngine(
        stepper=HierarchicalArrayStepper(),
        network=Network(max_message_size=1 << 20), rngs=RngRegistry(0),
    )
    engine.add_processes(group)
    engine._bind()  # rows, then the stepper
    engine._start()  # round 0: every row holds its own vote
    stepper = engine._stepper
    twin.on_start(SimpleNamespace(round=engine.round))
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


def _entries(payload) -> tuple:
    if isinstance(payload, GossipValue):
        return ((payload.key, payload.state),)
    return payload.entries


def _table(stepper, payloads):
    """The payloads as a snapshot table, slots from the stepper's own
    key→slot rule (keys are read back through its slot→key rule)."""
    width = max(1, max(len(_entries(p)) for p in payloads))
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
        for column, (key, state) in enumerate(_entries(payload)):
            slots[row, column] = stepper._slot_of(payload.phase, base, key)
            sids[row, column] = stepper._states.extend([state])[0]
    # A table is all requests or none: batches pushed, or answers and
    # single values.
    asks = {isinstance(p, GossipBatch) and not p.reply for p in payloads}
    assert len(asks) == 1
    return stepper._table(
        asks.pop(), np.full(count, MEMBER),
        np.array([p.phase for p in payloads]), np.array(bases),
        np.array([len(_entries(p)) for p in payloads]), slots, sids,
        np.array([p.wire_size() for p in payloads]),
    )


def _assert_answers(stepper, answers, expected) -> None:
    """A row's push-pull answers are its twin's: phase, keys in order
    and equal states (the table builds a state on read)."""
    for index, (__, theirs) in enumerate(expected):
        phase = int(answers.phase[index])
        keys = stepper._keys(phase, int(answers.base[index]))
        length = int(answers.length[index])
        assert (phase, answers.asks, theirs.reply) == (theirs.phase, False,
                                                       True)
        assert [keys[slot] for slot in answers.slots[index, :length]] == [
            key for key, __ in theirs.entries
        ]
        assert all(
            stepper._states[sid] == state for sid, (__, state) in zip(
                answers.sids[index, :length].tolist(), theirs.entries
            )
        )


def _assert_row_is_twin(stepper, twin) -> None:
    row = read_row(stepper, MEMBER)
    assert list(row.known) == list(twin.known)
    assert all(row.known[key] == twin.known[key] for key in twin.known)
    assert row._phase_received == twin._phase_received
    assert list(row._future) == list(twin._future)
    for phase, buffered in twin._future.items():
        assert list(row._future[phase]) == list(buffered)
        assert all(
            row._future[phase][key] == state
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
            assert [int(a) for a in asked] == [pos for pos, __ in expected]
            _assert_answers(stepper, answers, expected)
    assert twin.refused == 0  # the pool holds only placed entries
    _assert_row_is_twin(stepper, twin)


#: Pool picks (phase shift, key pick, state pick) held or buffered at
#: the start — enough to fill a phase-1 row past the batch cap.
held = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 2]), st.integers(0, 15),
        st.integers(0, 2),
    ),
    max_size=10,
)
#: Single values: (phase shift, key pick, state pick).
values = st.lists(
    st.tuples(st.integers(-1, 2), st.integers(0, 15), st.integers(0, 2)),
    min_size=1, max_size=12,
)


def _entry(phase: int, key_pick: int, state_pick: int) -> tuple:
    keys = _keys(phase)
    index = key_pick % len(keys)
    return keys[index], POOL[(phase, index)][state_pick]


@given(
    row_phase=st.sampled_from(range(1, PHASES + 1)),
    prefer=st.booleans(),
    push_pull=st.booleans(),
    start=held,
    drawn=values,
    chunk=st.integers(1, 12),
)
@settings(max_examples=300, deadline=None)
def test_scalar_admission_is_absorb_payloads(
    row_phase, prefer, push_pull, start, drawn, chunk,
):
    # Single-value gossip: each ``GossipValue`` is a one-entry table row
    # that asks for nothing, delivered in chunks of ``chunk`` arrivals.
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
    engine, stepper, __, twin = _world(
        GossipParams(batch_values=False, prefer_coverage=prefer,
                     push_pull=push_pull),
        row_phase, known, future,
    )
    payloads = [
        GossipValue(phase, *_entry(phase, key_pick, state_pick))
        for shift, key_pick, state_pick in drawn
        for phase in [min(PHASES, max(1, row_phase + shift))]
    ]
    for first in range(0, len(payloads), chunk):
        share = payloads[first:first + chunk]
        stepper._touched[:] = False
        answered = stepper.admit(
            engine, np.full(len(share), MEMBER), np.arange(len(share)),
            _table(stepper, share),
        )
        expected: list = []
        changed = twin.absorb_payloads(share, engine.round, expected)
        assert bool(stepper._touched[MEMBER]) == changed
        assert (answered, expected) == (None, [])
        _assert_row_is_twin(stepper, twin)
    assert twin.refused == 0
