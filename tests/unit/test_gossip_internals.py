"""White-box tests of HierarchicalGossipProcess internals.

These pin the fiddly mechanics the integration tests only exercise
statistically: index-mapped gossipee sampling, future-phase buffering and
drain, cascading advancement, and the global deadline arithmetic.
"""

import pytest

from repro.core.aggregates import AggregateState, AverageAggregate
from repro.core.gridbox import GridAssignment, GridBoxHierarchy, SubtreeId
from repro.core.hashing import StaticHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
)
from repro.core.messages import GossipBatch, GossipValue

BOXES = {7: 0, 3: 0, 8: 0, 6: 1, 5: 1, 2: 2, 4: 2, 1: 3}
VOTES = {m: float(m) for m in BOXES}
F = AverageAggregate()


def _assignment():
    hierarchy = GridBoxHierarchy(8, 2)
    return GridAssignment(hierarchy, VOTES, StaticHash(BOXES))


def _over(*members):
    """The aggregate of these members' votes as the protocol holds it:
    each vote lifted at its owner's hierarchy rank, not its id."""
    rank_of = _assignment().rank_of
    return F.merge_all([
        AggregateState(F.lift(m, VOTES[m]).payload, {rank_of(m)})
        for m in members
    ])


def _process(member=7, **param_overrides):
    params = GossipParams(**param_overrides)
    process = HierarchicalGossipProcess(
        member, VOTES[member], F, _assignment(), tuple(VOTES), params
    )
    process.known = {member: process.own_state()}
    return process


class FakeCtx:
    """Minimal Context stand-in capturing sends."""

    def __init__(self, round_number=0):
        self.round = round_number
        self.sent = []
        self.terminated = False

    def rng_for(self, *names):
        import numpy as np
        return np.random.default_rng(0)

    def send(self, dest, payload, size=1):
        self.sent.append((dest, payload))
        return True

    def terminate(self):
        self.terminated = True


class TestPeerSampling:
    def test_pool_excludes_self_via_index_mapping(self):
        process = _process(7)
        ctx = FakeCtx()
        for __ in range(50):
            process._gossip(ctx)
        destinations = {dest for dest, __ in ctx.sent}
        assert 7 not in destinations
        assert destinations <= {3, 8}  # phase-1: own box only

    def test_phase2_pool_is_height2_subtree(self):
        process = _process(7)
        process.phase = 2
        process.known = {SubtreeId(2, 0): _over(7, 3, 8)}
        ctx = FakeCtx()
        for __ in range(80):
            process._gossip(ctx)
        destinations = {dest for dest, __ in ctx.sent}
        assert destinations <= {3, 8, 6, 5}
        assert 6 in destinations or 5 in destinations

    def test_singleton_pool_sends_nothing(self):
        process = _process(1)  # alone in box 11
        ctx = FakeCtx()
        process._gossip(ctx)
        assert ctx.sent == []


class TestBatching:
    def test_batch_carries_whole_known_below_cap(self):
        process = _process(7)
        process.known[3] = _over(3)
        ctx = FakeCtx()
        process._gossip(ctx)
        __, payload = ctx.sent[0]
        assert isinstance(payload, GossipBatch)
        assert dict(payload.entries).keys() == {7, 3}

    def test_batch_capped_at_max_batch(self):
        process = _process(7, max_batch=1)
        process.known[3] = _over(3)
        process.known[8] = _over(8)
        ctx = FakeCtx()
        process._gossip(ctx)
        __, payload = ctx.sent[0]
        assert len(payload.entries) == 1

    def test_single_value_mode_sends_gossip_value(self):
        process = _process(7, batch_values=False)
        ctx = FakeCtx()
        process._gossip(ctx)
        __, payload = ctx.sent[0]
        assert isinstance(payload, GossipValue)


class TestBuffering:
    def _msg(self, payload):
        class Msg:
            pass
        m = Msg()
        m.payload = payload
        m.src = 99
        return m

    def test_drain_on_advance(self):
        process = _process(7, early_bump=True)
        future_state = _over(6, 5)
        process.on_message(
            FakeCtx(),
            self._msg(GossipValue(2, SubtreeId(2, 1), future_state)),
        )
        assert SubtreeId(2, 1) in process._future[2]
        # complete phase 1
        process.known[3] = _over(3)
        process.known[8] = _over(8)
        ctx = FakeCtx()
        process.phase_rounds = 1
        process._maybe_advance(ctx)
        assert process.phase == 3  # cascaded: buffered sibling completed 2
        assert ctx.terminated is False  # final phase awaits deadline

    def test_drain_is_an_admission_not_a_delivery(self):
        # The buffer is flushed through ``absorb_payloads``: a buffered
        # version of the member's own child subtree that covers more
        # than its own compose wins, and the flush leaves the new
        # phase's delivery count (the adaptive-deadline signal) at zero.
        process = _process(7, early_bump=True)
        own_child, sibling = SubtreeId(2, 0), SubtreeId(2, 1)
        fuller = _over(7, 3, 8)
        for key, state in ((sibling, _over(6)), (own_child, fuller)):
            process.on_message(
                FakeCtx(), self._msg(GossipValue(2, key, state))
            )
        process.phase_rounds = process.rounds_per_phase  # timeout: 7 alone
        version = process._known_version
        process._maybe_advance(FakeCtx())
        assert process.phase == 2
        assert list(process.known) == [own_child, sibling]
        assert process.known[own_child] is fuller
        assert process._known_version > version
        assert process._phase_received == 0

    def test_cascade_to_result_at_deadline(self):
        process = _process(7, early_bump=True)
        process.known[3] = _over(3)
        process.known[8] = _over(8)
        process.on_message(
            FakeCtx(),
            self._msg(GossipValue(2, SubtreeId(2, 1), _over(6, 5))),
        )
        process.on_message(
            FakeCtx(),
            self._msg(GossipValue(3, SubtreeId(1, 1), _over(2, 4, 1))),
        )
        deadline = process.num_phases * process.rounds_per_phase
        ctx = FakeCtx(round_number=deadline)
        process.phase_rounds = 1
        process._maybe_advance(ctx)
        assert process.result is not None
        assert sorted(
            process.covered_ids(process.result.members)
        ) == sorted(VOTES)
        assert ctx.terminated

    def test_early_bump_blocked_without_full_coverage(self):
        process = _process(7, early_bump=True)
        process.known[3] = _over(3)
        process.known[8] = _over(8)
        ctx = FakeCtx()
        process.phase_rounds = 1
        process._maybe_advance(ctx)
        assert process.phase == 2
        # sibling 01 aggregate, but covering only one of its two members
        process.on_message(
            ctx, self._msg(GossipValue(2, SubtreeId(2, 1), _over(6)))
        )
        process._maybe_advance(ctx)
        assert process.phase == 2  # partial version: wait for timeout


class TestDeadline:
    def test_deadline_formula(self):
        process = _process(7)
        ctx = FakeCtx(
            round_number=process.num_phases * process.rounds_per_phase - 1
        )
        assert process._deadline_reached(ctx)
        ctx.round -= 1
        assert not process._deadline_reached(ctx)

    def test_delayed_start_shifts_deadline(self):
        process = _process(7)
        process.start_round = 5

        class Ctx:
            round = 5 + process.num_phases * process.rounds_per_phase - 1

        assert process._deadline_reached(Ctx())
