"""The array stepper's columnar advance equals ``_maybe_advance``.

The array stepper bumps its rows up with array operations
(:meth:`~repro.core.array_stepper.HierarchicalArrayStepper._advance`);
the object engine runs ``HierarchicalGossipProcess._maybe_advance`` per
member.  These properties put one member into a random state — its
phase (the final one included), held child values at full and partial
coverage in a random insertion order, the phase clock, both deadline
extensions, deliveries this phase, buffered future values (the own
child's among them, at more or less coverage than it will compose to) —
with adaptive deadlines, early bump-up, coverage preference and the
runtime sanitizer (whose checks run beside the column fold, on the same
rows) each on and off, and advance it both ways: the row seeded
from the twin process (``tests/stepper_rows.py``).  The row's phase,
clock, extensions, ``known`` (keys, order and states, bit for bit) and
future buffer must match the twin's, and so must the member's result,
coverage, termination and emitted events.  A finalised row passes the
last phase, as the twin does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sanitize as sanitize
from repro.core.aggregates import AggregateState, AverageAggregate
from repro.core.array_stepper import HierarchicalArrayStepper
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.intervals import IntervalMask
from repro.core.observe import PhaseSink
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from tests.stepper_rows import read_row, seed_row

N, K = 64, 4
ASSIGNMENT = GridAssignment(GridBoxHierarchy(N, K), range(N), FairHash())
PHASES = ASSIGNMENT.hierarchy.num_phases
#: A member whose box has mates, so phase 1 has values to wait for.
MEMBER = next(
    member for member in ASSIGNMENT.member_ids
    if len(ASSIGNMENT.members_of_box(ASSIGNMENT.box_of(member))) > 2
)
VOTES = {member: (member * 0.37) % 5 + 1 / 3 for member in range(N)}


class Recorder(PhaseSink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class Context:
    """What ``_maybe_advance`` reads of its runtime."""

    def __init__(self, process, round_number):
        self.process = process
        self.round = round_number

    def terminate(self):
        self.process.terminated = True


def _keys(phase: int) -> list:
    """The keys of ``MEMBER``'s phase-``phase`` values, own first."""
    if phase == 1:
        mates = ASSIGNMENT.members_of_box(ASSIGNMENT.box_of(MEMBER))
        return [MEMBER] + [m for m in mates if m != MEMBER]
    own = ASSIGNMENT.subtree_of(MEMBER, phase - 1)
    children = ASSIGNMENT.occupied_children(
        ASSIGNMENT.subtree_of(MEMBER, phase)
    )
    return [own] + [child for child in children if child != own]


def _state(phase: int, key, cover: int) -> AggregateState:
    """A placed value under ``key``: a vote, or the first ``cover`` of
    the child's ranks (``cover == 0``: all of them)."""
    if phase == 1:
        ranks = [ASSIGNMENT.rank_of(key)]
    else:
        ranks = list(ASSIGNMENT.subtree_rank_range(key))
        ranks = ranks[:cover] if cover else ranks
    votes = [VOTES[ASSIGNMENT.member_at(rank)] for rank in ranks]
    return AggregateState((sum(votes), len(ranks)), IntervalMask(ranks))


def _same(a: AggregateState, b: AggregateState) -> bool:
    """Equal states, payload bits and types included."""
    return repr(a.payload) == repr(b.payload) and a.members == b.members


def _world(params: GossipParams):
    group_sink, twin_sink = Recorder(), Recorder()
    function = AverageAggregate()
    group = build_hierarchical_gossip_group(
        VOTES, function, ASSIGNMENT, params, phase_sink=group_sink
    )
    twin = build_hierarchical_gossip_group(
        VOTES, function, ASSIGNMENT, params, phase_sink=twin_sink
    ).materialize()[MEMBER]
    engine = ArraySteppedEngine(
        stepper=HierarchicalArrayStepper(),
        network=Network(max_message_size=1 << 20), rngs=RngRegistry(0),
    )
    engine.add_processes(group)
    engine._bind()  # rows, then the stepper
    engine._start()  # round 0: every row holds its own vote
    group_sink.events.clear()
    return engine, group[MEMBER], twin, group_sink, twin_sink


@given(
    phase=st.integers(1, PHASES),
    early_bump=st.booleans(),
    adaptive=st.booleans(),
    prefer=st.booleans(),
    fraction=st.sampled_from([1.0, 0.5]),
    sanitized=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_columnar_advance_matches_maybe_advance(
    phase, early_bump, adaptive, prefer, fraction, sanitized, data,
):
    was_active = sanitize.ACTIVE
    (sanitize.enable if sanitized else sanitize.disable)()
    try:
        _check_advance(
            phase, early_bump, adaptive, prefer, fraction, data
        )
    finally:
        (sanitize.enable if was_active else sanitize.disable)()


def _check_advance(phase, early_bump, adaptive, prefer, fraction, data):
    params = GossipParams(
        early_bump=early_bump, adaptive_deadlines=adaptive,
        prefer_coverage=prefer, representative_fraction=fraction,
    )
    engine, proc, twin, sink, twin_sink = _world(params)
    rounds = twin.rounds_per_phase
    budget = params.extension_budget(rounds)
    coverage = st.one_of(st.just(0), st.integers(1, 3))  # 0: all ranks
    keys = _keys(phase)
    # Half the rows hold every child at full coverage: complete.
    complete = data.draw(st.booleans())
    others = data.draw(st.permutations(range(1, len(keys))))
    if not complete:
        others = others[:data.draw(st.integers(0, len(others)))]
    held = data.draw(st.permutations([0] + others))
    known = {
        keys[index]: _state(
            phase, keys[index], 0 if complete else data.draw(coverage)
        )
        for index in held
    }
    future = {}
    for later in range(phase + 1, PHASES + 1):
        later_keys = _keys(later)
        if data.draw(st.booleans()):  # every child: a cascade can finish it
            picks = [(index, 0) for index in data.draw(
                st.permutations(range(len(later_keys)))
            )]
        else:
            picks = data.draw(st.lists(
                st.tuples(st.integers(0, len(later_keys) - 1), coverage),
                max_size=5,
            ))
        if picks:
            future[later] = {
                later_keys[index]: _state(later, later_keys[index], cover)
                for index, cover in picks
            }
    # Clock, deliveries and round straddle the timeout, the adaptive
    # deadlines' delivery threshold and the final deadline.
    extension = data.draw(st.one_of(st.just(budget), st.integers(0, budget)))
    clock = max(0, rounds + extension + data.draw(st.integers(-3, 2)))
    borrowed = extension + data.draw(st.integers(0, 3))
    received = max(0, max(1, clock) + data.draw(st.integers(-2, 1)))
    twin.phase = phase
    twin.known = dict(known)
    twin._future = {p: dict(bucket) for p, bucket in future.items()}
    twin.phase_rounds = clock
    twin._phase_extension = extension
    twin._deadline_extension = borrowed
    twin._phase_received = received
    engine.round = PHASES * rounds + data.draw(st.integers(-4, 6))
    stepper = engine._stepper
    seed_row(stepper, MEMBER, twin)

    stepped = np.zeros(N, dtype=bool)
    stepped[MEMBER] = True
    stepper._advance(engine, stepped)
    # The twin is a second member under the row's id: its phase clock
    # starts where the row's did.
    sanitize.start_clock([MEMBER])
    twin._maybe_advance(Context(twin, engine.round))

    row = read_row(stepper, MEMBER)
    assert proc.terminated == twin.terminated
    if twin.terminated:
        assert proc.phase == twin.phase
    else:
        assert (row.phase, row.phase_rounds) == (
            twin.phase, twin.phase_rounds
        )
        assert row._phase_extension == twin._phase_extension
    assert row._deadline_extension == twin._deadline_extension
    assert row._phase_received == twin._phase_received
    assert list(row.known) == list(twin.known)
    assert all(_same(row.known[key], twin.known[key]) for key in twin.known)
    assert list(row._future) == list(twin._future)
    for later, bucket in twin._future.items():
        assert list(row._future[later]) == list(bucket)
        assert all(
            _same(row._future[later][key], state)
            for key, state in bucket.items()
        )
    assert (proc.result is None) == (twin.result is None)
    if twin.result is not None:
        assert _same(proc.result, twin.result)
        assert proc.coverage_fraction == twin.coverage_fraction
    assert twin.refused == 0  # every drawn value is placed
    assert sink.events == twin_sink.events
