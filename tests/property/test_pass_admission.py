"""One-pass admission across receivers equals admitting arrival by arrival.

The array stepper admits a delivered chunk in one pass over (row, slot)
cells (:meth:`HierarchicalArrayStepper.admit`).  These properties send
interleaved arrivals to two to four receiver rows — grouped by a stable
sort of the receivers, as the engine's ``_deliver_block`` groups them —
and compare the stepper's columns (``_sid``, ``_order``, ``_held``,
``_touched``, ``_recv``, the future buffer) and its push-pull answers
with a plain reference that admits one arrival, and one entry, at a
time: a value replaces an empty cell, or under ``prefer_coverage`` a
held value of strictly lower coverage; a new key goes after the held
ones; every same-phase arrival counts, and a pulled arrival is answered
with the row as it stood before it.  Arrivals carry tied counts, the
same state id twice, held and empty cells and future-phase entries.
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
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

N, K = 64, 4
ASSIGNMENT = GridAssignment(GridBoxHierarchy(N, K), range(N), FairHash())
#: Coverage counts of the state pool: ties at every count.
COUNTS = (1, 1, 2, 2, 3, 3)

receivers = st.lists(st.integers(0, N - 1), min_size=2, max_size=4,
                     unique=True)
#: Per receiver: its phase (1 or 2) and the (slot, state) cells it holds.
starts = st.lists(
    st.tuples(st.integers(1, 2), st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, len(COUNTS) - 1)),
        max_size=4,
    )),
    min_size=4, max_size=4,
)
#: Per arrival: receiver pick, phase shift and (slot, state) entries.
arrivals = st.lists(
    st.tuples(
        st.integers(0, 3), st.sampled_from([0, 0, 0, 1, -1]),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, len(COUNTS) - 1)),
            max_size=5,
        ),
    ),
    min_size=1, max_size=12,
)


def _stepper(params: GossipParams):
    """A bound, started array engine over ``N`` members, and its stepper."""
    votes = {member: float(member) for member in range(N)}
    group = build_hierarchical_gossip_group(
        votes, AverageAggregate(), ASSIGNMENT, params
    )
    engine = ArraySteppedEngine(
        stepper=HierarchicalArrayStepper(),
        network=Network(max_message_size=1 << 20), rngs=RngRegistry(0),
    )
    engine.add_processes(group)
    engine._bind()
    engine._start()
    return engine, engine._stepper


def _pool(stepper) -> list[int]:
    """State ids with the coverage counts ``COUNTS``."""
    return stepper._states.extend([
        AggregateState((float(index), count), IntervalMask(range(count)))
        for index, count in enumerate(COUNTS)
    ]).tolist()


def _seed(stepper, rows, drawn, pool) -> None:
    """Put each receiver in its phase holding only its drawn cells: the
    first draw per slot, in draw order."""
    width = stepper._sid.shape[1]
    for row, (phase, cells) in zip(rows, drawn):
        picks: dict = {}
        for slot, pick in cells:
            picks.setdefault(slot % width, pool[pick])
        slots = list(picks)
        stepper._phase[row] = phase
        stepper._sid[row] = 0
        stepper._sid[row, slots] = list(picks.values())
        stepper._order[row, :len(slots)] = slots
        stepper._held[row] = len(slots)
    stepper._touched[:] = False
    stepper._recv[:] = 0


def _reference(stepper, rows, phases, entries, asks):
    """Admit the receiver-sorted arrivals one by one, entry by entry, on
    copies of the columns; returns them and the answers."""
    sid, order = stepper._sid.copy(), stepper._order.copy()
    held, touched = stepper._held.copy(), stepper._touched.copy()
    recv = stepper._recv.copy()
    count = stepper._states.count
    buffered, answers = [], []
    for index, (row, phase, cells) in enumerate(zip(rows, phases, entries)):
        if phase > stepper._phase[row]:
            buffered.extend((row, phase, slot, value) for slot, value in cells)
            continue
        if phase < stepper._phase[row]:
            continue
        recv[row] += 1
        if asks and stepper._push_pull:
            length = min(held[row], stepper._k)
            slots = order[row, :length].tolist()
            answers.append((index, row, slots, sid[row, slots].tolist()))
        for slot, value in cells:
            current = sid[row, slot]
            if current == 0:
                order[row, held[row]] = slot
                held[row] += 1
            elif not (stepper._prefer and count[value] > count[current]):
                continue
            sid[row, slot] = value
            touched[row] = True
    return sid, order, held, touched, recv, buffered, answers


@given(
    picked=receivers, drawn=starts, sent=arrivals,
    prefer=st.booleans(), push_pull=st.booleans(), asks=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_admits_like_arrival_by_arrival(
    picked, drawn, sent, prefer, push_pull, asks,
):
    engine, stepper = _stepper(
        GossipParams(prefer_coverage=prefer, push_pull=push_pull)
    )
    pool = _pool(stepper)
    width = stepper._sid.shape[1]
    _seed(stepper, picked, drawn, pool)
    # The chunk, interleaved in arrival order: a payload row per arrival.
    dest = np.array([picked[pick % len(picked)] for pick, __, __ in sent])
    phase = np.array([
        max(1, int(stepper._phase[row]) + shift)
        for row, (__, shift, __) in zip(dest, sent)
    ])
    # One entry per slot and arrival (a payload row's keys are distinct).
    cells = [
        list({slot % width: pool[pick] for slot, pick in entries}.items())
        for __, __, entries in sent
    ]
    columns = max(1, max(map(len, cells)))
    slots = np.zeros((len(sent), columns), dtype=np.int64)
    sids = np.zeros((len(sent), columns), dtype=np.int32)
    for index, entries in enumerate(cells):
        for column, (slot, value) in enumerate(entries):
            slots[index, column], sids[index, column] = slot, value
    length = np.array(list(map(len, cells)))
    table = stepper._table(
        asks, dest, phase, np.zeros(len(sent), dtype=np.int64), length,
        slots, sids, stepper._sizes(length, sids),
    )
    order = np.argsort(dest, kind="stable")  # as _deliver_block groups
    expected = _reference(
        stepper, dest[order], phase[order], [cells[i] for i in order], asks,
    )
    answered = stepper.admit(engine, dest[order], order, table)

    sid, held_order, held, touched, recv, buffered, answers = expected
    assert np.array_equal(stepper._sid, sid)
    assert np.array_equal(stepper._order, held_order)
    assert np.array_equal(stepper._held, held)
    assert np.array_equal(stepper._touched, touched)
    assert np.array_equal(stepper._recv, recv)
    assert stepper._future[:stepper._future_used].tolist() == [
        list(entry) for entry in buffered
    ]
    if answered is None:
        assert answers == []
        return
    asked, rows, table = answered
    assert asked.tolist() == [index for index, *__ in answers]
    assert rows.tolist() == [row for __, row, *__ in answers]
    assert not table.asks
    for index, (__, row, slots, values) in enumerate(answers):
        length = int(table.length[index])
        assert table.phase[index] == stepper._phase[row]
        assert table.slots[index, :length].tolist() == slots
        assert table.sids[index, :length].tolist() == values
        assert not table.sids[index, length:].any()
