"""The columnar state table (``repro.core.aggregates.StateTable``).

The array stepper keeps every aggregate state of a run in one table:
per id a coverage count, a wire size, the payload as columns (or one
object column) and the coverage as rank intervals.  These tests pin
that the table's composition is ``merge_all``'s — payload bits and mask
bounds — for every aggregate, that a sweep keeps every live id's state,
that the measurements read off the table equal the object engine's, and
that a run composes and measures without building a single
``AggregateState`` or ``IntervalMask``.
"""

from __future__ import annotations

import math
import struct
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.intervals as intervals
import repro.sanitize as sanitize
from repro.core.aggregates import (
    AGGREGATE_NAMES,
    AggregateState,
    StateTable,
    get_aggregate,
)
from repro.core.protocol import measure_completeness, measure_estimates
from repro.experiments import runner
from repro.experiments.params import with_params
from repro.sim.array_engine import ArraySteppedEngine
from tests.engines import ENGINES, forced


def _bits(value):
    """A payload's exact content: float bits, and the type of the rest
    (every NaN reads the same)."""
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return (type(value), value)


#: One child: its ranges as (gap before, length) pairs.  The first gap
#: is from the previous child's last rank (0: adjacent, so the ranges
#: must merge); later ones are inside the child, where ranges never
#: touch.
child = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=4,
)
rows_of_children = st.lists(
    st.tuples(st.lists(child, min_size=1, max_size=5), st.randoms()),
    min_size=1, max_size=6,
)


def _children(function, spans, votes) -> list[AggregateState]:
    """Disjoint states in ascending rank order, ``spans`` as drawn."""
    states = []
    rank = 0
    for ranges in spans:
        members = []
        for index, (gap, length) in enumerate(ranges):
            rank += gap + (1 if index else 0)
            members.extend(range(rank, rank + length))
            rank += length
        states.append(function.over({
            member: votes.uniform(-1e3, 1e3) for member in members
        }))
    return states


@pytest.mark.parametrize("name", AGGREGATE_NAMES)
@given(rows=rows_of_children)
@settings(max_examples=30, deadline=None)
def test_compose_is_merge_all(name, rows):
    """A row's composition: the payloads folded in insertion order and
    the slot-ordered coverage joined are ``merge_all`` of the children in
    insertion order — payload bit for bit, mask bounds exactly."""
    function = get_aggregate(name)
    table = StateTable(function)
    width = 8
    order = np.zeros((len(rows), width), dtype=np.int64)
    slots = np.zeros((len(rows), width), dtype=np.int64)
    held = np.zeros(len(rows), dtype=np.int64)
    expected = []
    for row, (spans, draws) in enumerate(rows):
        children = _children(function, spans, draws)
        sids = table.extend(children)
        # Slots in rank order, some left empty; insertion order shuffled.
        at = sorted(draws.sample(range(width), len(children)))
        slots[row, at] = sids
        inserted = draws.sample(range(len(children)), len(children))
        order[row, :len(children)] = sids[inserted]
        held[row] = len(children)
        expected.append(function.merge_all(
            [children[index] for index in inserted]
        ))
    composed = table.compose(order, held, slots)
    for sid, state in zip(composed.tolist(), expected):
        got = table[sid]
        assert _bits(got.payload) == _bits(state.payload)
        assert got.members.bounds == state.members.bounds
        assert table.count[sid] == state.members.count
        assert table.size[sid] == state.wire_size()


#: Floats that stress a fold: infinities, the largest and the smallest
#: magnitudes, and signed zeros.
edge_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, 1.7976931348623157e308,
                     -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
                     0.0, -0.0]),
)
scalars = {"f8": edge_floats, "i8": st.integers(-2**40, 2**40),
           "?": st.booleans()}


@pytest.mark.parametrize("name", [
    name for name in AGGREGATE_NAMES if get_aggregate(name).folds
])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_accumulate_fold_is_the_left_fold(name, data):
    """An aggregate whose column combiner is one ufunc per column folds
    by ``ufunc.accumulate``: bit for bit ``reduce(_combine)`` over each
    row's first ``length`` payloads, lengths 1..width."""
    function = get_aggregate(name)
    size = data.draw(st.integers(1, 12))
    width = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 6))
    table = [
        np.array(data.draw(st.lists(scalars[dtype], min_size=size,
                                    max_size=size)), dtype=dtype)
        for dtype in function.columns
    ]
    ids = np.array(data.draw(st.lists(
        st.lists(st.integers(0, size - 1), min_size=width, max_size=width),
        min_size=rows, max_size=rows,
    )))
    lengths = np.array(data.draw(st.lists(
        st.integers(1, width), min_size=rows, max_size=rows,
    )))
    folded = function.fold_columns(table, ids, lengths)
    payloads = [tuple(column.item(sid) for column in table)
                for sid in range(size)]
    if len(table) == 1:
        payloads = [payload[0] for payload in payloads]
    for row in range(rows):
        expected = reduce(
            function._combine,
            [payloads[sid] for sid in ids[row, :lengths[row]].tolist()],
        )
        got = tuple(column.item(row) for column in folded)
        assert _bits(got if len(got) > 1 else got[0]) == _bits(expected)


def test_compose_in_blocks_of_rows():
    # Over 1024 rows compose a block at a time: every row still joins
    # its own children (two adjacent single votes here).
    function = get_aggregate("average")
    table = StateTable(function)
    count = 2500
    sids = table.extend([
        function.lift(rank, float(rank)) for rank in range(2 * count)
    ])
    pairs = sids.reshape(count, 2)
    composed = table.compose(pairs, np.full(count, 2), pairs)
    for row in (0, 1023, 1024, 2499):
        state = table[composed[row]]
        assert state.members.bounds == (2 * row, 2 * row + 1)
        assert state.payload == (float(4 * row + 1), 2)


@pytest.mark.parametrize("name", ["average", "top_k"])
@given(
    spans=st.lists(child, min_size=2, max_size=30),
    live=st.lists(st.booleans(), min_size=32, max_size=32),
    more=st.lists(child, max_size=10),
    draws=st.randoms(),
)
@settings(max_examples=30, deadline=None)
def test_sweep_keeps_every_live_state(name, spans, live, more, draws):
    """Freeing ids and packing the ranges leaves every live id reading
    the same state — two compositions of equal coverage still sharing
    one copy of its ranges — and freed ids handed out again read their
    new one."""
    function = get_aggregate(name)
    table = StateTable(function)
    sids = table.extend(_children(function, spans, draws))
    pair = np.repeat(sids[None, :2], 2, axis=0)
    twins = table.compose(pair, np.array([2, 2]), pair)
    assert table.first[twins[0]] == table.first[twins[1]]
    sids = np.concatenate((sids, twins))
    kept = {
        sid: table[sid] for sid, keep in zip(sids.tolist(), live) if keep
    }
    mask = np.zeros(len(table), dtype=bool)
    mask[list(kept)] = True
    table.sweep(mask)
    added = _children(function, more, draws)
    new = table.extend(added).tolist()
    assert not set(new) & set(kept)
    for sid, state in kept.items():
        assert table[sid] == state
    if all(sid in kept for sid in twins.tolist()):
        assert table.first[twins[0]] == table.first[twins[1]]
    for sid, state in zip(new, added):
        assert table[sid] == state


def _measured(config):
    """Per engine: the completeness report and the estimates triple, as
    the runner measured the finished group."""
    out = {}
    for engine in ENGINES:
        seen = {}

        def capture(processes, group_size):
            seen["group"] = processes
            return measure_completeness(processes, group_size=group_size)

        with forced(engine), pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "measure_completeness", capture)
            result = runner.run_once(config)
        report = result.report
        out[engine] = (
            report, measure_estimates(seen["group"], report,
                                      result.true_value),
        )
    return out


@pytest.mark.parametrize("aggregate", ["average", "top_k"])
def test_array_measurements_equal_the_object_engine(aggregate):
    # Lossy and crashing, so results are partial and members differ:
    # survivor- and initial-relative completeness, the estimates and the
    # mean coverage come out of the table exactly as out of processes.
    measured = _measured(with_params(
        n=256, ucastl=0.3, pf=0.01, aggregate=aggregate, seed=4,
    ))
    (report, estimates), (theirs, their_estimates) = (
        measured["array"], measured["object"]
    )
    assert report.crashed > 0 and report.mean_completeness_initial < 1.0
    assert report.per_member == theirs.per_member
    assert report.per_member_initial == theirs.per_member_initial
    assert (report.survivors, report.crashed, report.unfinished) == (
        theirs.survivors, theirs.crashed, theirs.unfinished
    )
    assert estimates == their_estimates


def test_array_run_builds_no_state_object(monkeypatch):
    # From the engine's run through ``measure_estimates`` an unsanitized
    # array run constructs no ``AggregateState`` and no ``IntervalMask``:
    # every state is a table id.
    built = []
    state_init = AggregateState.__init__.__code__

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (
            code is state_init or code.co_filename == intervals.__file__
        ):
            built.append(code.co_name)

    run = ArraySteppedEngine.run
    estimates = runner.measure_estimates

    def profiled_run(self, *args, **kwargs):
        sys.setprofile(profile)
        return run(self, *args, **kwargs)

    def measured(*args, **kwargs):
        try:
            return estimates(*args, **kwargs)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(ArraySteppedEngine, "run", profiled_run)
    monkeypatch.setattr(runner, "measure_estimates", measured)
    was_active = sanitize.ACTIVE
    sanitize.disable()
    try:
        with forced("array"):
            result = runner.run_once(with_params(
                n=512, pf=0.002, aggregate="average", seed=1,
            ))
    finally:
        sys.setprofile(None)
        if was_active:
            sanitize.enable()
    assert result.report.per_member  # the window ran and measured
    assert built == []
