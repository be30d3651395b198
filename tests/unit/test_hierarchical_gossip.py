"""Unit tests for the Hierarchical Gossiping protocol process."""

import weakref

import pytest

from repro.core.aggregates import (
    AggregateState,
    AverageAggregate,
    SumAggregate,
)
from repro.core.gridbox import GridAssignment, GridBoxHierarchy, SubtreeId
from repro.core.hashing import FairHash, StaticHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
    build_hierarchical_gossip_group,
    rounds_per_phase_for,
)
from repro.core.intervals import IntervalMask
from repro.core.messages import GossipBatch, GossipValue
from repro.sim.engine import SimulationEngine
from repro.sim.network import LossyNetwork, Network
from repro.sim.rng import RngRegistry


class _StubContext:
    """What ``on_message`` needs of a context outside an engine."""

    round = 0


_CTX = _StubContext()


def _figure1_world(function=None, boxes=None):
    """The paper's Figure 1 example: 8 members, K=2, fixed boxes."""
    function = function or AverageAggregate()
    votes = {m: float(m) for m in range(1, 9)}
    boxes = boxes or {7: 0, 3: 0, 8: 0, 6: 1, 5: 1, 2: 2, 4: 2, 1: 3}
    hierarchy = GridBoxHierarchy(8, 2)
    assignment = GridAssignment(hierarchy, votes, StaticHash(boxes))
    return votes, function, assignment


def _lifted(*members):
    """Figure 1's votes of ``members`` as the protocol holds them: each
    lifted at its owner's hierarchy rank (box 0 holds ranks 0-2: 3, 7,
    8; box 1 ranks 3-4: 5, 6; box 2 ranks 5-6: 2, 4; box 3 rank 7: 1)."""
    votes, function, assignment = _figure1_world()
    return function.merge_all([
        AggregateState(
            function.lift(m, votes[m]).payload,
            IntervalMask.single(assignment.rank_of(m)),
        )
        for m in members
    ])


def _run(votes, function, assignment, params=None, network=None, seed=0,
         max_rounds=200):
    processes = build_hierarchical_gossip_group(
        votes, function, assignment, params or GossipParams()
    )
    engine = SimulationEngine(
        network=network or Network(max_message_size=1 << 20),
        rngs=RngRegistry(seed),
        max_rounds=max_rounds,
    )
    engine.add_processes(processes)
    engine.run()
    return processes, engine


class TestRoundsPerPhase:
    def test_formula(self):
        import math
        assert rounds_per_phase_for(200, 1.0) == math.ceil(math.log(200))

    def test_scaling_with_c(self):
        assert rounds_per_phase_for(200, 2.0) == 2 * rounds_per_phase_for(
            200, 1.0
        ) or rounds_per_phase_for(200, 2.0) >= rounds_per_phase_for(200, 1.0)

    def test_minimum_one(self):
        assert rounds_per_phase_for(1, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rounds_per_phase_for(0, 1.0)
        with pytest.raises(ValueError):
            rounds_per_phase_for(10, 0.0)
        with pytest.raises(ValueError):
            rounds_per_phase_for(10, 1.0, fanout_m=0)


class TestGossipParams:
    def test_override_rounds(self):
        assert GossipParams(rounds_per_phase=3).resolve_rounds(10_000) == 3

    def test_invalid_override(self):
        with pytest.raises(ValueError):
            GossipParams(rounds_per_phase=0).resolve_rounds(100)

    def test_round_budget_is_phases_plus_spread_plus_extension(self):
        plain = GossipParams(rounds_per_phase=6)
        assert plain.round_budget(1000, num_phases=3) == 18
        assert plain.round_budget(1000, 3, start_spread=4) == 22
        # Every phase may borrow ceil(0.5 * 6) = 3 rounds.
        hardened = GossipParams(rounds_per_phase=6, adaptive_deadlines=True)
        assert hardened.round_budget(1000, 3, start_spread=4) == 31
        # ceil(C log N) when no override is set: ceil(ln 512) = 7.
        assert GossipParams().round_budget(512, 3) == 21


class TestLosslessCorrectness:
    def test_exact_average_on_figure1(self):
        votes, function, assignment = _figure1_world()
        processes, __ = _run(votes, function, assignment)
        expected = sum(votes.values()) / len(votes)
        for process in processes:
            assert process.result is not None
            assert function.finalize(process.result) == pytest.approx(expected)
            # Coverage is held in hierarchy-rank slots; Figure 1's ids
            # are 1..8, so translate before comparing.
            assert process.result.members == frozenset(range(len(votes)))
            assert sorted(
                process.covered_ids(process.result.members)
            ) == sorted(votes)

    def test_exact_sum(self):
        votes, __, assignment = _figure1_world()
        function = SumAggregate()
        processes, __ = _run(votes, function, assignment)
        for process in processes:
            assert function.finalize(process.result) == pytest.approx(36.0)

    def test_single_value_mode_also_converges_lossless(self):
        votes, function, assignment = _figure1_world()
        params = GossipParams(batch_values=False, rounds_per_phase=12)
        processes, __ = _run(votes, function, assignment, params)
        for process in processes:
            assert sorted(
                process.covered_ids(process.result.members)
            ) == sorted(votes)

    def test_fair_hash_group(self):
        votes = {i: float(i % 5) for i in range(50)}
        function = AverageAggregate()
        hierarchy = GridBoxHierarchy(50, 4)
        assignment = GridAssignment(hierarchy, votes, FairHash(salt=2))
        processes = build_hierarchical_gossip_group(
            votes, function, assignment
        )
        engine = SimulationEngine(
            network=Network(max_message_size=1 << 20),
            rngs=RngRegistry(0), max_rounds=200,
        )
        engine.add_processes(processes)
        engine.run()
        expected = sum(votes.values()) / 50
        for process in processes:
            assert function.finalize(process.result) == pytest.approx(expected)
            # Votes are lifted at hierarchy rank, so complete coverage —
            # of the group, and of each subtree on the way up — is one
            # interval however the hash scattered the ids.
            assert process.slot == assignment.rank_of(process.node_id)
            assert process.own_state().members.bounds == (
                process.slot, process.slot,
            )
            assert process.result.members.bounds == (0, 49)

    def test_runs_finish_by_global_deadline(self):
        votes, function, assignment = _figure1_world()
        params = GossipParams(rounds_per_phase=4)
        __, engine = _run(votes, function, assignment, params)
        assert engine.round <= 4 * assignment.hierarchy.num_phases + 1


class TestDegenerateGroups:
    def test_single_member_group(self):
        votes = {42: 7.5}
        function = AverageAggregate()
        hierarchy = GridBoxHierarchy(1, 2)
        assignment = GridAssignment(hierarchy, votes, FairHash())
        processes, __ = _run(votes, function, assignment)
        assert function.finalize(processes[0].result) == 7.5

    def test_two_members(self):
        votes = {0: 1.0, 1: 3.0}
        function = AverageAggregate()
        hierarchy = GridBoxHierarchy(2, 2)
        assignment = GridAssignment(hierarchy, votes, FairHash(salt=1))
        processes, __ = _run(votes, function, assignment)
        for process in processes:
            assert function.finalize(process.result) == pytest.approx(2.0)

    def test_all_members_in_one_box(self):
        """Adversarial layout: everyone crammed in one grid box still
        converges given a round budget sized to the box, not to K."""
        votes = {m: float(m) for m in range(6)}
        hierarchy = GridBoxHierarchy(6, 2)
        assignment = GridAssignment(
            hierarchy, votes, StaticHash({m: 0 for m in votes})
        )
        function = AverageAggregate()
        params = GossipParams(rounds_per_phase=10, max_batch=6)
        processes, __ = _run(votes, function, assignment, params)
        for process in processes:
            assert process.result.members == frozenset(votes)


class TestMessageHandling:
    def _process(self, member=7, params=None):
        votes, function, assignment = _figure1_world()
        return HierarchicalGossipProcess(
            node_id=member,
            vote=votes[member],
            function=function,
            assignment=assignment,
            view=tuple(votes),
            params=params or GossipParams(),
        )

    def test_stale_phase_ignored(self):
        process = self._process()
        process.known = {process.node_id: process.own_state()}
        process.phase = 2
        stale = GossipValue(1, 3, _lifted(3))

        class FakeMessage:
            payload = stale

        process.on_message(_CTX, FakeMessage())
        assert 3 not in process.known

    def test_future_phase_buffered(self):
        process = self._process()
        process.known = {process.node_id: process.own_state()}
        state = _lifted(2, 4, 1)  # boxes 2 and 3: child (1, 1) of the root
        future = GossipValue(3, SubtreeId(1, 1), state)

        class FakeMessage:
            payload = future

        process.on_message(_CTX, FakeMessage())
        assert process._future[3][SubtreeId(1, 1)] is state

    def test_current_phase_accepted(self):
        process = self._process()
        process.known = {process.node_id: process.own_state()}
        vote = _lifted(3)

        class FakeMessage:
            payload = GossipValue(1, 3, vote)

        process.on_message(_CTX, FakeMessage())
        assert process.known[3] is vote

    def test_batch_accepted(self):
        process = self._process()
        process.known = {process.node_id: process.own_state()}
        batch = GossipBatch(1, ((3, _lifted(3)), (8, _lifted(8))))

        class FakeMessage:
            payload = batch

        process.on_message(_CTX, FakeMessage())
        assert set(process.known) == {7, 3, 8}

    def test_coverage_preference_upgrades(self):
        process = self._process()
        process.phase = 2
        key = SubtreeId(2, 1)  # box 1, a child of 7's phase-2 subtree
        small = _lifted(5)
        big = _lifted(5, 6)
        process.known = {}

        class Msg:
            def __init__(self, payload):
                self.payload = payload

        process.on_message(_CTX, Msg(GossipValue(2, key, small)))
        process.on_message(_CTX, Msg(GossipValue(2, key, big)))
        assert process.known[key] is big
        # And never downgrades:
        process.on_message(_CTX, Msg(GossipValue(2, key, small)))
        assert process.known[key] is big

    def test_first_wins_ablation(self):
        process = self._process(params=GossipParams(prefer_coverage=False))
        process.phase = 2
        key = SubtreeId(2, 1)
        small = _lifted(5)
        big = _lifted(5, 6)
        process.known = {}

        class Msg:
            def __init__(self, payload):
                self.payload = payload

        process.on_message(_CTX, Msg(GossipValue(2, key, small)))
        process.on_message(_CTX, Msg(GossipValue(2, key, big)))
        assert process.known[key] is small

    def test_unknown_payload_ignored(self):
        process = self._process()
        process.known = {process.node_id: process.own_state()}

        class FakeMessage:
            payload = "garbage"

        process.on_message(_CTX, FakeMessage())
        assert set(process.known) == {7}


class _SendLog(_StubContext):
    def __init__(self):
        self.sent = []

    def send(self, dest, payload, size=1):
        self.sent.append((dest, payload, size))
        return True


class _From:
    def __init__(self, src, payload):
        self.src = src
        self.payload = payload


class TestPushPullReplies:
    """One place decides a pull reply: ``absorb_payloads``."""

    def _process(self, **params):
        votes, function, assignment = _figure1_world()
        process = HierarchicalGossipProcess(
            7, votes[7], function, assignment, tuple(votes),
            GossipParams(push_pull=True, **params),
        )
        process.on_start(_CTX)
        return process

    @staticmethod
    def _fresh_answer(process):
        cap = process.params.max_batch or process.assignment.hierarchy.k
        return GossipBatch(
            process.phase, tuple(process.known.items())[:cap], reply=True
        )

    def test_memoized_answer_equals_a_fresh_one_at_every_request(self):
        # max_batch=2 puts ``known`` over the cap by the last request:
        # the reply is then its first ``cap`` entries.
        process = self._process(max_batch=2)
        requests = [
            GossipBatch(1, ((3, _lifted(3)),)),
            GossipBatch(1, ((3, _lifted(3)),)),   # nothing new
            GossipBatch(1, ((8, _lifted(8)),)),
            GossipBatch(1, ((8, _lifted(8)),)),
        ]
        ctx = _SendLog()
        for request in requests:
            expected = self._fresh_answer(process)  # before the absorb
            process.on_message(ctx, _From(3, request))
            dest, answer, size = ctx.sent[-1]
            assert (dest, answer, size) == (3, expected, expected.wire_size())
        assert len(ctx.sent) == len(requests)
        # One object per state of ``known``: request 2 changed nothing.
        assert ctx.sent[1][1] is not ctx.sent[0][1]
        assert ctx.sent[2][1] is ctx.sent[1][1]
        assert len(process.known) == 3 and len(ctx.sent[3][1].entries) == 2

    def test_request_is_answered_before_it_is_absorbed(self):
        process = self._process()
        answers = []
        changed = process.absorb_payloads(
            [GossipBatch(1, ((3, _lifted(3)),)),
             GossipValue(1, 8, _lifted(8)),
             GossipBatch(1, ((3, _lifted(3)),))],
            0, answers,
        )
        assert changed
        assert [position for position, __ in answers] == [0, 2]
        assert [key for key, __ in answers[0][1].entries] == [7]
        assert [key for key, __ in answers[1][1].entries] == [7, 3]

    def test_only_current_phase_requests_are_answered(self):
        process = self._process()
        key = SubtreeId(2, 1)
        answers = []
        process.absorb_payloads(
            [GossipBatch(1, ((3, _lifted(3)),), reply=True),
             GossipBatch(2, ((key, _lifted(5)),)),
             GossipValue(1, 8, _lifted(8)),
             "garbage"],
            0, answers,
        )
        assert answers == []
        # Nobody collecting, push-pull off, or a result already: silent.
        request = GossipBatch(1, ((3, _lifted(3)),))
        assert process.absorb_payloads([request], 0) is False
        process.params = GossipParams()
        process.absorb_payloads([request], 0, answers)
        process.params = GossipParams(push_pull=True)
        process.result = process.own_state()
        process.absorb_payloads([request], 0, answers)
        assert answers == []

    def test_deduped_delivery_still_counts_and_still_pulls(self):
        process = self._process()
        request = GossipBatch(1, ((3, _lifted(3)),))
        ctx = _SendLog()
        process.on_message(ctx, _From(3, request))
        known, version = dict(process.known), process._known_version
        for __ in range(2):
            process.on_message(ctx, _From(3, request))
        assert process.known == known
        assert process._known_version == version
        assert process._phase_received == 3
        assert len(ctx.sent) == 3
        # A shared reply reaching one requester twice is the same skip.
        requester = self._process()
        reply = ctx.sent[-1][1]
        for __ in range(2):
            requester.on_message(ctx, _From(7, reply))
        assert requester._phase_received == 2
        assert len(ctx.sent) == 3  # a reply is never re-answered

    def test_an_absorbed_batch_is_not_kept(self):
        # A member's state is bounded by K values per phase (paper
        # 6.3), not by the traffic it received: only admitted states
        # outlive the call, never the batch that carried them.
        class Tracked(GossipBatch):  # the slotted class has no weakref
            pass

        process = self._process()
        novel = Tracked(1, ((3, _lifted(3)),))
        repeat = Tracked(1, tuple(process.known.items()))
        later = Tracked(2, ((SubtreeId(2, 1), _lifted(5)),))
        refs = [weakref.ref(batch) for batch in (novel, repeat, later)]
        process.absorb_payloads([novel, repeat, later], 0, [])
        del novel, repeat, later
        assert [ref() for ref in refs] == [None, None, None]
        assert 3 in process.known and 2 in process._future

    def test_instance_attribute_count_is_pinned(self):
        # CPython 3.11 keeps up to 29 instance attributes inline; one
        # more moves every member to a dict and costs ~40% of group
        # setup.  A new memo belongs in an existing record
        # (``_batch_cache``).
        assert len(vars(self._process())) <= 29


class TestStructuralAdmission:
    """A receiver stores only what its hierarchy places under a key."""

    def _process(self, member=7, boxes=None):
        votes, function, assignment = _figure1_world(boxes=boxes)
        process = HierarchicalGossipProcess(
            member, votes[member], function, assignment, tuple(votes),
            GossipParams(),
        )
        process.on_start(_CTX)
        return process

    def test_phase1_takes_a_box_mate_at_its_own_rank(self):
        process = self._process()
        process.absorb_payloads([GossipBatch(1, (
            (3, _lifted(8)),        # 8's vote re-keyed as box mate 3
            (5, _lifted(5)),        # a genuine vote from another box
            (9, AggregateState((9.0, 1), IntervalMask.single(8))),  # Sybil
            (8, _lifted(8, 3)),     # a box mate's key over two ranks
        ))], 0)
        assert list(process.known) == [7] and process.refused == 4
        process.absorb_payloads([GossipValue(1, 3, _lifted(3))], 0)
        assert list(process.known) == [7, 3] and process.refused == 4

    def test_later_phases_take_a_child_inside_its_rank_range(self):
        process = self._process()
        process.phase = 2  # subtree (1, 0): children (2, 0) and (2, 1)
        process.known = {}
        process.absorb_payloads([GossipBatch(2, (
            (SubtreeId(2, 2), _lifted(2, 4)),   # a cousin, not a child
            (SubtreeId(1, 0), _lifted(5)),      # the wrong height
            (SubtreeId(2, 1), _lifted(5, 2)),   # a rank outside box 1
            ((2, 1), _lifted(5)),               # not a SubtreeId
            (5, _lifted(5)),                    # a member key in phase 2
        ))], 0)
        assert process.known == {} and process.refused == 5
        process.absorb_payloads(
            [GossipValue(2, SubtreeId(2, 1), _lifted(6))], 0
        )
        assert list(process.known) == [SubtreeId(2, 1)]

    def test_an_unoccupied_child_admits_nothing(self):
        # Box 3 left empty: 1 moves into box 2.
        boxes = {7: 0, 3: 0, 8: 0, 6: 1, 5: 1, 2: 2, 4: 2, 1: 2}
        process = self._process(member=2, boxes=boxes)
        assert SubtreeId(2, 3) not in process._expected_keys(2)
        stray = AggregateState((1.0, 1), IntervalMask.single(7))
        process.absorb_payloads([GossipValue(2, SubtreeId(2, 3), stray)], 0)
        assert process._future == {} and process.refused == 1

    def test_the_future_buffer_is_bounded(self):
        """10 000 forged future-phase keys and a phase past the last
        leave at most K entries per buffered phase."""
        process = self._process()
        k = process.assignment.hierarchy.k
        whole = _lifted(*range(1, 9))
        forged = []
        for index in range(10_000):
            phase = 2 + index % 2
            key = SubtreeId(4 - phase, index // 2)
            forged.append(GossipValue(phase, key, whole))
        forged.append(GossipValue(process.num_phases + 1, SubtreeId(0, 0),
                                  whole))
        process.absorb_payloads(forged, 0)
        assert set(process._future) <= {2, 3}
        assert all(len(held) <= k for held in process._future.values())
        assert process.refused == len(forged)
        # A genuine child aggregate still finds its place.
        process.absorb_payloads(
            [GossipValue(3, SubtreeId(1, 1), _lifted(2, 4, 1))], 0
        )
        assert list(process._future[3]) == [SubtreeId(1, 1)]


class TestExpectedKeys:
    def test_phase1_is_box(self):
        process_view = _figure1_world()
        votes, function, assignment = process_view
        process = HierarchicalGossipProcess(
            7, votes[7], function, assignment, tuple(votes), GossipParams()
        )
        assert process._expected_keys(1) == frozenset({7, 3, 8})

    def test_phase2_children(self):
        votes, function, assignment = _figure1_world()
        process = HierarchicalGossipProcess(
            7, votes[7], function, assignment, tuple(votes), GossipParams()
        )
        assert process._expected_keys(2) == frozenset(
            {SubtreeId(2, 0), SubtreeId(2, 1)}
        )

    def test_partial_view_limits_expectations(self):
        votes, function, assignment = _figure1_world()
        process = HierarchicalGossipProcess(
            7, votes[7], function, assignment, (7, 3), GossipParams()
        )
        assert process._expected_keys(1) == frozenset({7, 3})


class TestWireDiscipline:
    def test_single_value_messages_fit_tight_bound(self):
        """Strict protocol text: every message is a couple of scalars."""
        votes, function, assignment = _figure1_world()
        params = GossipParams(batch_values=False)
        processes, engine = _run(
            votes, function, assignment, params,
            network=Network(max_message_size=40),
        )
        assert engine.network.stats.sent > 0  # nothing raised

    def test_batch_messages_fit_k_scaled_bound(self):
        votes, function, assignment = _figure1_world()
        # K=2 -> at most 2 values of (id + (sum, count)) + header.
        processes, engine = _run(
            votes, function, assignment, GossipParams(),
            network=Network(max_message_size=8 + 2 * (8 + 16)),
        )
        assert engine.network.stats.sent > 0
