"""Tests for the runtime aggregation sanitizer (:mod:`repro.sanitize`).

The headline case plants a deliberate double count inside a live
protocol run and asserts the sanitizer rejects it with a structured
report naming the offending member, round and phase.  The rest covers
each invariant in isolation (held disjointness, count channel, subtree
placement, mass conservation, phase clock), the exception-compatibility
contract with :class:`~repro.core.aggregates.DoubleCountError`, and that
enabling the sanitizer never changes results.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import sanitize
from repro.core.array_stepper import HierarchicalArrayStepper
from repro.core.aggregates import (
    AggregateState,
    AverageAggregate,
    DoubleCountError,
    SumAggregate,
)
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import StaticHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.experiments.params import RunConfig
from repro.experiments.runner import run_once
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from tests.stepper_rows import seed_row

SRC = Path(__file__).resolve().parents[2] / "src"


class _StubProcess:
    """Minimal protocol-process stand-in for compose/phase checks."""

    def __init__(self, node_id=0, function=None):
        self.node_id = node_id
        self.function = function if function is not None else SumAggregate()

    def covered_ids(self, mask):
        return list(mask)  # a vote's slot is its member id


@pytest.fixture
def clean_sanitizer():
    """Sanitizer on, with no leftover run state; the state it found is
    restored afterwards."""
    was_active = sanitize.ACTIVE
    sanitize.enable()
    sanitize.end_run()
    yield sanitize
    (sanitize.enable if was_active else sanitize.disable)()
    sanitize.end_run()


def _member(node_id=3, function=None):
    """A member of the Figure-1 world, composing ``function`` (sum by
    default).  Box 0 holds members 3, 7 and 8 at ranks 0, 1 and 2; box
    1 members 5 and 6 at ranks 3 and 4."""
    world = TestPlantedDoubleCountInProtocol()._figure1_world()
    votes, default, assignment = world
    processes = build_hierarchical_gossip_group(
        votes, function or default, assignment, GossipParams()
    ).materialize()
    return next(p for p in processes if p.node_id == node_id)


class TestEnableDisable:
    def test_toggle_switches_the_compose_checks(self, clean_sanitizer):
        # Member 7's vote (rank 1) held under two keys.
        member = _member()
        member.known = {7: member.function.lift(1, 7.0),
                        3: member.function.lift(1, 7.0)}
        ctx = SimpleNamespace(round=4)
        sanitize.disable()
        assert not sanitize.enabled()
        with pytest.raises(DoubleCountError) as plain:
            member._compose_known(ctx)
        assert not isinstance(plain.value, sanitize.SanitizerError)
        sanitize.enable()
        assert sanitize.enabled()
        with pytest.raises(sanitize.DoubleCountViolation):
            member._compose_known(ctx)

    def test_environment_variable_enables_at_import(self):
        code = "import repro.sanitize as s; print(s.enabled())"
        for value, expected in (("1", "True"), ("0", "False")):
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True,
                env={
                    "PYTHONPATH": str(SRC),
                    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "REPRO_SANITIZE": value,
                },
            )
            assert completed.returncode == 0, completed.stderr
            assert completed.stdout.strip() == expected


class TestMergeChecks:
    """:func:`repro.sanitize.check_held` on the values a Figure-1 member
    is about to merge (see :func:`_member` for its ranks)."""

    def test_overlapping_merge_raises_double_count_violation(
        self, clean_sanitizer
    ):
        member = _member()
        function = member.function
        a = function.lift(1, 7.0)
        b = function.merge(function.lift(1, 7.0), function.lift(2, 8.0))
        with pytest.raises(sanitize.DoubleCountViolation) as caught:
            sanitize.check_held(member, 0, 1, [a, b])
        violation = caught.value.violation
        assert violation.kind == "double-count"
        assert "members [7]" in violation.detail  # rank 1, by member id

    def test_violation_is_also_the_protocols_double_count_error(
        self, clean_sanitizer
    ):
        member = _member()
        same = member.function.lift(0, 3.0)
        with pytest.raises(DoubleCountError):
            sanitize.check_held(member, 0, 1, [same, same])

    def test_compose_context_attributes_member_round_phase(
        self, clean_sanitizer
    ):
        member = _member(node_id=8)
        same = member.function.lift(2, 8.0)
        with pytest.raises(sanitize.DoubleCountViolation) as caught:
            sanitize.check_held(member, 3, 1, [same, same])
        violation = caught.value.violation
        assert (violation.member, violation.round, violation.phase) == (
            8, 3, 1,
        )
        report = violation.report()
        assert "member 8" in report and "phase 1" in report

    def test_count_channel_drift_is_rejected(self, clean_sanitizer):
        member = _member(function=AverageAggregate())
        # Payload claims two votes, the mask covers one: a smuggled
        # double count that disjointness alone cannot see.
        drifted = AggregateState(payload=(5.0, 2), members=frozenset({1}))
        with pytest.raises(sanitize.SanitizerError) as caught:
            sanitize.check_held(
                member, 0, 1, [member.function.lift(0, 3.0), drifted]
            )
        assert caught.value.violation.kind == "count-channel"

    def test_disjoint_merges_pass(self, clean_sanitizer):
        member = _member(function=AverageAggregate())
        function = member.function
        held = [function.lift(rank, 1.0) for rank in (2, 0, 1)]
        sanitize.check_held(member, 0, 1, held)
        # Phase 2 holds the two boxes under subtree 0: ranks 0-4.
        sanitize.check_held(member, 0, 2, [
            function.merge_all(held), function.lift(4, 6.0),
        ])


class TestComposeChecks:
    """Ground-truth checks, for both ways a protocol numbers its votes.

    The ``ids`` world lifts a vote at its member id (baselines,
    stand-ins); the ``ranks`` world is a real hierarchical-gossip member,
    whose masks hold hierarchy ranks (here 3 -> 0, 1 -> 1, 2 -> 2) that
    the sanitizer must translate back before consulting the votes.
    """

    VOTES = {1: 1.0, 2: 2.0, 3: 4.0}

    def _worlds(self):
        """``(process factory, member ids -> mask slots)`` per world."""
        yield _StubProcess, frozenset
        assignment = GridAssignment(
            GridBoxHierarchy(3, 2), self.VOTES,
            StaticHash({3: 0, 1: 1, 2: 1}),
        )
        assert [assignment.rank_of(m) for m in (1, 2, 3)] == [1, 2, 0]

        def process(node_id=1, function=None):
            (member,) = build_hierarchical_gossip_group(
                {node_id: self.VOTES[node_id]}, function, assignment,
                GossipParams(fanout_m=1),
            )
            return member

        yield process, lambda ids: {assignment.rank_of(m) for m in ids}

    def test_mass_conservation_catches_tampered_payload(
        self, clean_sanitizer
    ):
        function = SumAggregate()
        sanitize.begin_run(self.VOTES, function)
        for process, slots in self._worlds():
            tampered = AggregateState(
                payload=99.0, members=slots(self.VOTES)
            )
            with pytest.raises(sanitize.SanitizerError) as caught:
                sanitize.check_compose(
                    process(node_id=2, function=function), 4, 2, tampered
                )
            violation = caught.value.violation
            assert violation.kind == "mass-conservation"
            assert (violation.member, violation.round, violation.phase) == (
                2, 4, 2,
            )
            assert "ground-truth recomputation 7.0" in violation.detail

    def test_exact_mass_passes(self, clean_sanitizer):
        function = SumAggregate()
        sanitize.begin_run(self.VOTES, function)
        for process, slots in self._worlds():
            member = process(function=function)
            good = AggregateState(payload=7.0, members=slots(self.VOTES))
            sanitize.check_compose(member, 0, 1, good)
            # A strict subset: right only if each slot finds its own vote.
            part = AggregateState(payload=5.0, members=slots({3, 1}))
            sanitize.check_compose(member, 0, 1, part)
            wrong = AggregateState(payload=5.0, members=slots({3, 2}))
            with pytest.raises(sanitize.SanitizerError) as caught:
                sanitize.check_compose(member, 0, 1, wrong)
            assert "recomputation 6.0" in caught.value.violation.detail

    def test_fold_order_float_drift_is_tolerated(self, clean_sanitizer):
        function = SumAggregate()
        sanitize.begin_run(self.VOTES, function)
        for process, slots in self._worlds():
            drifted = AggregateState(
                payload=7.0 * (1.0 + 1e-9), members=slots(self.VOTES)
            )
            sanitize.check_compose(
                process(function=function), 0, 1, drifted
            )

    def test_foreign_member_is_rejected(self, clean_sanitizer):
        """A held value must lie inside the member's phase subtree: a
        Sybil identity above every rank in use names itself, a member
        of another box its id."""
        member = _member()
        function = member.function
        for slots, named in (({1, 999}, "ids [999]"), ({1, 3}, "ids [5]")):
            foreign = AggregateState(payload=1.0, members=frozenset(slots))
            with pytest.raises(sanitize.SanitizerError) as caught:
                sanitize.check_held(
                    member, 0, 1, [function.lift(0, 3.0), foreign]
                )
            violation = caught.value.violation
            assert violation.kind == "foreign-member"
            assert named in violation.detail


class TestPhaseClock:
    def test_monotone_stepping_passes(self, clean_sanitizer):
        process = _StubProcess(node_id=4)
        sanitize.check_phase_bump(process, 0, 1, 2)
        sanitize.check_phase_bump(process, 3, 2, 3)
        sanitize.check_phase_bump(process, 5, 3, 4)

    def test_the_clock_is_keyed_by_member_and_restarts_at_a_start(
        self, clean_sanitizer
    ):
        sanitize.check_phase_bump(_StubProcess(node_id=4), 0, 1, 2)
        # Another object for member 4 is the same member: its clock.
        with pytest.raises(sanitize.SanitizerError):
            sanitize.check_phase_bump(_StubProcess(node_id=4), 1, 1, 2)
        sanitize.check_phase_bump(_StubProcess(node_id=5), 1, 1, 2)
        sanitize.start_clock([4])
        sanitize.check_phase_bump(_StubProcess(node_id=4), 2, 1, 2)
        sanitize.end_run()  # a run's end forgets every clock
        sanitize.check_phase_bump(_StubProcess(node_id=5), 3, 1, 2)

    def test_phase_skip_is_rejected(self, clean_sanitizer):
        process = _StubProcess(node_id=4)
        with pytest.raises(sanitize.SanitizerError) as caught:
            sanitize.check_phase_bump(process, 0, 1, 3)
        assert caught.value.violation.kind == "phase-clock"
        assert caught.value.violation.member == 4

    def test_regression_is_rejected(self, clean_sanitizer):
        process = _StubProcess(node_id=4)
        sanitize.check_phase_bump(process, 0, 1, 2)
        with pytest.raises(sanitize.SanitizerError):
            sanitize.check_phase_bump(process, 1, 1, 2)


class TestPlantedDoubleCountInProtocol:
    """The acceptance case: a planted double count inside a live run."""

    def _figure1_world(self):
        function = SumAggregate()
        votes = {m: float(m) for m in range(1, 9)}
        boxes = {7: 0, 3: 0, 8: 0, 6: 1, 5: 1, 2: 2, 4: 2, 1: 3}
        hierarchy = GridBoxHierarchy(8, 2)
        assignment = GridAssignment(hierarchy, votes, StaticHash(boxes))
        return votes, function, assignment

    @pytest.mark.parametrize("array", [
        pytest.param(False, id="object"),
        # The block path composes through the same hooks: a stepper that
        # advanced phases around them would let this run finish.
        pytest.param(True, id="array"),
    ])
    def test_planted_double_count_names_member_and_phase(
        self, clean_sanitizer, array
    ):
        votes, function, assignment = self._figure1_world()
        group = build_hierarchical_gossip_group(
            votes, function, assignment, GossipParams()
        )
        row = group.member_ids.index(7)
        # A process for member 7: the group's own on the object engine,
        # a twin whose state is copied into the row on the array engine.
        target = (
            build_hierarchical_gossip_group(
                votes, function, assignment, GossipParams()
            ) if array else group
        ).materialize()[row]
        original_on_start = target.on_start

        def planted_on_start(ctx):
            # A buggy protocol implementation re-admitting its own vote
            # under a box mate's key: classic double count.
            original_on_start(ctx)
            target.known[3] = target.own_state()

        target.on_start = planted_on_start
        world = dict(
            network=Network(max_message_size=1 << 20),
            rngs=RngRegistry(seed=0),
            max_rounds=200,
        )
        if array:
            # Rows start from each member's own vote: the same bug,
            # planted in the target's row.
            stepper = HierarchicalArrayStepper()
            begin = stepper.begin

            def planted_begin(engine):
                begin(engine)
                target.on_start(SimpleNamespace(round=engine.round))
                seed_row(stepper, row, target)

            stepper.begin = planted_begin
            engine = ArraySteppedEngine(stepper=stepper, **world)
        else:
            engine = SimulationEngine(**world)
        engine.add_processes(group)
        with pytest.raises(sanitize.DoubleCountViolation) as caught:
            engine.run()
        violation = caught.value.violation
        assert violation.kind == "double-count"
        # The duplicate is detected at the first composing member it
        # reaches — the planter itself or a box-mate it gossiped to.
        assert violation.member in {3, 7, 8}
        assert violation.phase == 1
        assert violation.round is not None
        # The double-counted member, by id: its vote sits at hierarchy
        # rank 1 in the mask, and the report translates it back.
        assert assignment.rank_of(7) == 1
        assert "members [7]" in violation.detail
        assert f"member {violation.member}" in violation.report()
        assert "phase 1" in violation.report()

    def test_untampered_run_passes_under_sanitizer(self, clean_sanitizer):
        votes, function, assignment = self._figure1_world()
        sanitize.begin_run(votes, function)
        processes = build_hierarchical_gossip_group(
            votes, function, assignment, GossipParams()
        )
        engine = SimulationEngine(
            network=Network(max_message_size=1 << 20),
            rngs=RngRegistry(seed=0),
            max_rounds=200,
        )
        engine.add_processes(processes)
        engine.run()
        assert all(p.result is not None for p in processes)


class TestRunnerIntegration:
    CONFIG = RunConfig(n=24, k=2, seed=11)

    def test_run_once_installs_and_clears_ground_truth(
        self, clean_sanitizer
    ):
        result = run_once(self.CONFIG)
        assert result.report.mean_completeness >= 0.0
        assert sanitize._GROUND_TRUTH is None  # end_run ran

    def test_results_identical_with_and_without_sanitizer(
        self, clean_sanitizer
    ):
        sanitize.disable()
        plain = run_once(self.CONFIG)
        sanitize.enable()
        checked = run_once(self.CONFIG)
        assert plain.true_value == checked.true_value
        assert plain.rounds == checked.rounds
        assert plain.messages_sent == checked.messages_sent
        assert plain.bytes_sent == checked.bytes_sent
        assert plain.report.per_member == checked.report.per_member
        assert (
            plain.report.mean_completeness
            == checked.report.mean_completeness
        )
