"""Wave admission of a columnar row equals ``absorb_payloads``.

The array stepper admits a delivered chunk in waves over its columnar
rows (:mod:`repro.core.array_stepper`); the object engine hands the same
arrivals to ``HierarchicalGossipProcess.absorb_payloads`` one after the
other.  These properties feed one member random arrival sequences —
same, past and future phase; repeated, new and replaced keys; better,
equal and worse coverage; ``prefer_coverage`` on and off; push-pull
requests and replies — through both, and require the same keys in the
same insertion order holding the same state objects, the same changed
flag, ``_phase_received``, phase buffers and answers.
"""

from __future__ import annotations

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
from repro.core.messages import GossipBatch
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

N, K = 64, 4
ASSIGNMENT = GridAssignment(GridBoxHierarchy(N, K), range(N), FairHash())
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
POOL = {
    (phase, index): [
        _state(ranks[:1], 1000 * phase + 10 * index),
        _state(ranks[:2], 1000 * phase + 10 * index + 3),
        _state(ranks[-2:], 1000 * phase + 10 * index + 6),
    ]
    for phase in (1, 2, 3)
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


def _world(params: GossipParams, phase: int):
    """Twin processes of ``MEMBER`` (one in an array engine's row) in
    ``phase`` with the same ``known``."""
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
    engine._bind_rows()
    stepper = engine._stepper
    stepper.bind(engine)
    for proc in group:
        proc.on_start(engine._ctx)
    proc = group[MEMBER]
    if phase > 1:
        own = ASSIGNMENT.subtree_of(MEMBER, phase - 1)
        proc.known = {own: _state(ASSIGNMENT.subtree_rank_range(own), 7)}
    proc.phase = twin.phase = phase
    twin.known = dict(proc.known)
    stepper._begin()
    return engine, stepper, proc, twin


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
    engine, stepper, proc, twin = _world(params, row_phase)
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
                assert (mine.phase, mine.reply) == (theirs.phase, True)
                assert [k for k, __ in mine.entries] == [
                    k for k, __ in theirs.entries
                ]
                assert all(
                    a is b for (__, a), (__, b)
                    in zip(mine.entries, theirs.entries)
                )
    assert twin.refused == 0  # the pool holds only placed entries
    stepper._sync(np.array([MEMBER]))
    assert list(proc.known) == list(twin.known)
    assert all(proc.known[key] is twin.known[key] for key in twin.known)
    assert proc._phase_received == twin._phase_received
    assert list(proc._future) == list(twin._future)
    for phase, buffered in twin._future.items():
        assert list(proc._future[phase]) == list(buffered)
        assert all(
            proc._future[phase][key] is state
            for key, state in buffered.items()
        )
