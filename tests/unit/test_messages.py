"""Unit tests for wire message payloads and size accounting."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.aggregates import AverageAggregate, SumAggregate
from repro.core.gridbox import SubtreeId
from repro.core.messages import (
    ID_SIZE,
    AggregateReport,
    Dissemination,
    GossipBatch,
    GossipValue,
    VoteReport,
)
from repro.net.codec import Gossip, Join, Ping, Pong, Welcome

F = AverageAggregate()


class TestGossipValue:
    def test_wire_size_includes_header_and_payload(self):
        value = GossipValue(1, 3, F.lift(3, 1.0))
        # phase + key + (sum, count)
        assert value.wire_size() == 2 * ID_SIZE + 16

    def test_frozen(self):
        value = GossipValue(1, 3, F.lift(3, 1.0))
        try:
            value.phase = 2
            assert False, "should be immutable"
        except AttributeError:
            pass


class TestGossipBatch:
    def test_size_scales_with_entries(self):
        one = GossipBatch(1, ((3, F.lift(3, 1.0)),))
        two = GossipBatch(
            1, ((3, F.lift(3, 1.0)), (4, F.lift(4, 2.0)))
        )
        assert two.wire_size() == one.wire_size() + ID_SIZE + 16

    def test_empty_batch_has_header(self):
        assert GossipBatch(1, ()).wire_size() == ID_SIZE

    def test_subtree_keys_supported(self):
        batch = GossipBatch(
            2, ((SubtreeId(2, 1), F.over({1: 1.0, 2: 2.0})),)
        )
        assert batch.wire_size() == ID_SIZE + ID_SIZE + 16


class TestReports:
    def test_vote_report(self):
        report = VoteReport(5, SumAggregate().lift(5, 2.0))
        assert report.wire_size() == ID_SIZE + 8

    def test_aggregate_report(self):
        report = AggregateReport(SubtreeId(1, 0), F.over({1: 1.0}))
        assert report.wire_size() == ID_SIZE + 16

    def test_dissemination(self):
        packet = Dissemination(F.over({1: 1.0, 2: 2.0}))
        assert packet.wire_size() == 16

    def test_sizes_do_not_grow_with_members_covered(self):
        small = Dissemination(F.over({1: 1.0}))
        large = Dissemination(F.over({i: 1.0 for i in range(500)}))
        assert small.wire_size() == large.wire_size()


# Member-keyed: a ``SubtreeId`` key does not pickle (its two-argument
# ``__new__`` has no ``__getnewargs__``), slotted batch or not.
_BATCH = GossipBatch(1, ((5, F.lift(5, 5.0)), (6, F.lift(6, 6.0))))


class TestSlottedValues:
    """What a round allocates carries no ``__dict__`` (DESIGN.md), and
    still behaves as a value: the ``--jobs`` runner pickles results,
    tamper campaigns ``replace`` fields, dedupe relies on ``==``."""

    @pytest.mark.parametrize("value", [
        F.lift(3, 1.0),
        GossipValue(1, 3, F.lift(3, 1.0)),
        _BATCH,
        Gossip(src=1, sent_round=4, payload=_BATCH),
        Join(node_id=1, host="127.0.0.1", port=9300),
        Welcome(book={1: ("127.0.0.1", 9300)}),
        Ping(src=1),
        Pong(src=2),
    ], ids=lambda value: type(value).__name__)
    def test_no_dict_and_still_a_value(self, value):
        assert not hasattr(value, "__dict__")
        first = dataclasses.fields(value)[0].name
        same = dataclasses.replace(value, **{first: getattr(value, first)})
        clones = [
            same, copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ]
        for clone in clones:
            assert clone == value and clone is not value
        if not isinstance(value, Welcome):  # its book is a dict
            assert {hash(clone) for clone in clones} == {hash(value)}

    def test_wire_size_memo_is_a_field_not_part_of_the_value(self):
        state = F.over({5: 5.0, 6: 6.0})
        batch = GossipBatch(1, ((5, state),))
        fresh = pickle.loads(pickle.dumps(batch))
        assert (state._wire_size, batch._wire_size) == (None, None)
        assert batch.wire_size() == ID_SIZE + ID_SIZE + 16
        assert (state._wire_size, batch._wire_size) == (16, 32)
        # Sized or not, equal; and the memo travels with a copy.
        assert fresh == batch and hash(fresh) == hash(batch)
        assert "_wire_size" not in repr(batch)
        assert pickle.loads(pickle.dumps(batch))._wire_size == 32
        assert dataclasses.replace(batch, reply=True)._wire_size is None
        assert state.wire_size(float_size=4) == 8  # not memoized
        assert state._wire_size == 16
