"""Unit tests for the round-based simulation engine."""

import contextlib
import gc

import pytest

from repro.sim.engine import Context, Process, SimulationEngine
from repro.sim.failures import ScheduledFailures
from repro.sim.network import LossyNetwork, Network
from repro.sim.rng import RngRegistry


class Echo(Process):
    """Sends one message to a target on round 0; records receipts."""

    def __init__(self, node_id, target=None, rounds=1):
        super().__init__(node_id)
        self.target = target
        self.rounds = rounds
        self.received = []
        self.round_log = []
        self.started = False

    def on_start(self, ctx):
        self.started = True

    def on_round(self, ctx):
        self.round_log.append(ctx.round)
        if self.target is not None and ctx.round == 0:
            ctx.send(self.target, f"hi from {self.node_id}")
        if len(self.round_log) >= self.rounds:
            ctx.terminate()

    def on_message(self, ctx, message):
        self.received.append((ctx.round, message.src, message.payload))


def _engine(network=None, failures=None, max_rounds=100):
    return SimulationEngine(
        network=network or Network(),
        failure_model=failures,
        rngs=RngRegistry(0),
        max_rounds=max_rounds,
    )


def _gossip_world(network, array, push_pull=False):
    """A 16-member hierarchical gossip group on either round engine."""
    from repro.core.aggregates import AverageAggregate
    from repro.core.array_stepper import HierarchicalArrayStepper
    from repro.core.gridbox import GridAssignment, GridBoxHierarchy
    from repro.core.hashing import FairHash
    from repro.core.hierarchical_gossip import (
        GossipParams,
        build_hierarchical_gossip_group,
    )
    from repro.sim.array_engine import ArraySteppedEngine

    votes = {m: float(m) for m in range(16)}
    assignment = GridAssignment(GridBoxHierarchy(16, 4), votes, FairHash())
    if array:
        engine = ArraySteppedEngine(
            stepper=HierarchicalArrayStepper(), network=network,
            rngs=RngRegistry(3),
        )
    else:
        engine = SimulationEngine(network=network, rngs=RngRegistry(3))
    engine.add_processes(build_hierarchical_gossip_group(
        votes, AverageAggregate(), assignment,
        GossipParams(push_pull=push_pull),
    ))
    return engine, assignment


class TestLifecycle:
    def test_on_start_called_once(self):
        engine = _engine()
        p = Echo(0)
        engine.add_process(p)
        engine.run()
        assert p.started

    def test_duplicate_ids_rejected(self):
        engine = _engine()
        engine.add_process(Echo(0))
        with pytest.raises(ValueError):
            engine.add_process(Echo(0))

    def test_run_stops_when_all_terminate(self):
        engine = _engine()
        engine.add_processes([Echo(0, rounds=3), Echo(1, rounds=5)])
        stats = engine.run()
        assert stats.rounds_executed == 5

    def test_max_rounds_bounds_run(self):
        class Forever(Process):
            pass

        engine = _engine(max_rounds=7)
        engine.add_process(Forever(0))
        stats = engine.run()
        assert stats.rounds_executed == 7

    def test_until_predicate_stops_early(self):
        engine = _engine()
        engine.add_process(Echo(0, rounds=50))
        engine.run(until=lambda: engine.round >= 10)
        assert engine.round == 10


class TestMessaging:
    def test_message_delivered_next_round(self):
        engine = _engine()
        a, b = Echo(0, target=1, rounds=5), Echo(1, rounds=5)
        engine.add_processes([a, b])
        engine.run()
        assert b.received == [(1, 0, "hi from 0")]

    def test_terminated_process_still_receives(self):
        engine = _engine()
        a = Echo(0, target=1, rounds=5)
        b = Echo(1, rounds=1)  # terminates in round 0
        engine.add_processes([a, b])
        engine.run()
        assert b.received  # late delivery still reaches it

    def test_message_to_unknown_destination_vanishes(self):
        engine = _engine()
        engine.add_process(Echo(0, target=99, rounds=2))
        stats = engine.run()
        assert stats.messages_delivered == 0

    def test_injected_unknown_destination_vanishes(self):
        from repro.sim.network import Message
        from tests.engines import inject_at

        def delivered(inject):
            network = LossyNetwork(ucastl=0.2, max_message_size=1 << 20)
            engine, __ = _gossip_world(network, array=False)
            if inject:
                inject_at(engine, 0, [
                    (2, Message(src=0, dest=1_000_000, payload=None)),
                ])
            return engine.run().messages_delivered

        baseline = delivered(inject=False)
        assert baseline > 0
        assert delivered(inject=True) == baseline

    def test_array_engine_refuses_send_taps_and_injections(self):
        # It delivers blocks, never single messages: a tap would see
        # nothing and an injection would be dropped, so both raise.
        from repro.sim.network import Message
        from tests.engines import inject_at

        network = LossyNetwork(ucastl=0.2, max_message_size=1 << 20)
        engine, __ = _gossip_world(network, array=True)
        with pytest.raises(ValueError, match="taps"):
            engine.send_tap = lambda message: None
        assert engine.send_tap is None
        message = Message(src=0, dest=1, payload=None)
        with pytest.raises(ValueError, match="injected"):
            engine.inject(2, message)
        inject_at(engine, 0, [(2, message)])
        with pytest.raises(ValueError, match="injected"):
            engine.run()
        assert engine.round == 0  # raised by round 0's subscriber

    def test_injection_lands_between_delivery_and_step_sends(self):
        # A round-1 subscriber injects for round 2.  The message is
        # queued after round 1's delivery-time sends (the reply) and
        # before its step's sends, so it arrives between them.
        from repro.sim.network import Message
        from tests.engines import inject_at

        class Pinger(Process):
            def on_start(self, ctx):
                ctx.send(1, "ping")

        class Replier(Process):
            def on_message(self, ctx, message):
                ctx.send(2, "reply")

            def on_round(self, ctx):
                if ctx.round == 1:
                    ctx.send(2, "step")

        engine = _engine(max_rounds=4)
        recorder = Echo(2, rounds=10)
        engine.add_processes([Pinger(0), Replier(1), recorder])
        inject_at(engine, 1, [(2, Message(src=-1, dest=2,
                                          payload="injected"))])
        engine.run()
        assert recorder.received == [
            (2, 1, "reply"), (2, -1, "injected"), (2, 1, "step"),
        ]

    def test_pull_request_from_a_forged_sender_is_answered_to_nobody(self):
        # The reply is planned like any send (it is in ``sent``) and
        # then finds no receiver.
        from repro.core.messages import GossipBatch
        from repro.sim.network import Message
        from tests.engines import inject_at

        def books(array, inject):
            network = Network(max_message_size=1 << 20)  # lossless
            engine, assignment = _gossip_world(network, array, push_pull=True)
            if inject:
                # Round 1: nobody in a shared box has left phase 1 yet.
                victim = next(
                    m for m in assignment.member_ids
                    if len(assignment.members_of_box(assignment.box_of(m)))
                    > 1
                )
                inject_at(engine, 0, [(1, Message(
                    src=1_000_000, dest=victim, payload=GossipBatch(1, ()),
                    size=8,
                ))])
            stats = engine.run()
            return stats.messages_delivered, network.stats.sent

        delivered, sent = books(array=False, inject=False)
        assert books(array=True, inject=False) == (delivered, sent)
        # One more delivery (the forgery) and one more send (its answer).
        assert books(array=False, inject=True) == (delivered + 1, sent + 1)

    def test_messages_to_crashed_member_vanish(self):
        engine = _engine(failures=ScheduledFailures(crash_at={0: [1]}))
        a, b = Echo(0, target=1, rounds=3), Echo(1, rounds=3)
        engine.add_processes([a, b])
        engine.run()
        assert b.received == []

    def test_send_outside_callback_asserts(self):
        engine = _engine()
        engine.add_process(Echo(0))
        with pytest.raises(AssertionError):
            Context(engine).send(0, "nope")


class TestFailures:
    def test_crash_stops_rounds(self):
        engine = _engine(failures=ScheduledFailures(crash_at={2: [0]}))
        p = Echo(0, rounds=100)
        engine.add_process(p)
        engine.run()
        assert not p.alive
        assert max(p.round_log) == 1  # no round step at/after the crash

    def test_recovery_resumes_rounds(self):
        engine = _engine(
            failures=ScheduledFailures(crash_at={1: [0]}, recover_at={3: [0]})
        )
        p = Echo(0, rounds=4)
        engine.add_process(p)
        engine.run()
        assert p.alive
        assert 0 in p.round_log and 1 not in p.round_log  # down in 1-2
        assert 3 in p.round_log

    def test_crash_counted_once(self):
        engine = _engine(
            failures=ScheduledFailures(crash_at={1: [0], 2: [0]})
        )
        engine.add_process(Echo(0, rounds=100))
        stats = engine.run()
        assert stats.crashes == 1


class TestLivenessCounters:
    """The O(1) alive/active/terminated counters vs. an O(N) recount.

    The metrics snapshot path reads these every round at N >= 8192, so
    they must track every transition source: add, crash, recover and
    terminate.
    """

    @staticmethod
    def _recount(engine):
        alive = sum(1 for p in engine.processes.values() if p.alive)
        terminated = sum(
            1 for p in engine.processes.values() if p.terminated
        )
        active = sum(
            1 for p in engine.processes.values()
            if p.alive and not p.terminated
        )
        return alive, active, terminated

    def _check(self, engine):
        assert (
            engine.live_count, engine.active_count, engine.terminated_count
        ) == self._recount(engine)

    def test_counters_after_add(self):
        engine = _engine()
        engine.add_processes([Echo(i, rounds=3) for i in range(5)])
        self._check(engine)
        assert engine.live_count == 5
        assert engine.terminated_count == 0

    def test_counters_track_every_round(self):
        engine = _engine(
            failures=ScheduledFailures(
                crash_at={1: [0, 1], 3: [2]}, recover_at={4: [1]}
            )
        )
        engine.add_processes([Echo(i, rounds=i + 2) for i in range(6)])
        engine.run(until=lambda: self._check(engine))
        self._check(engine)
        assert engine.live_count == 6 - 2  # 0 and 2 stay crashed

    def test_all_terminated_stops_via_counter(self):
        engine = _engine()
        engine.add_processes([Echo(i, rounds=2) for i in range(4)])
        engine.run()
        self._check(engine)
        assert engine.terminated_count == 4
        assert engine.active_count == 0


class TestDeterminism:
    def _run(self, seed):
        engine = SimulationEngine(
            network=LossyNetwork(ucastl=0.5),
            rngs=RngRegistry(seed),
            max_rounds=50,
        )
        procs = [Echo(i, target=(i + 1) % 10, rounds=10) for i in range(10)]
        engine.add_processes(procs)
        engine.run()
        return [tuple(p.received) for p in procs]

    def test_same_seed_identical_trace(self):
        assert self._run(5) == self._run(5)

    def test_different_seed_differs(self):
        assert self._run(5) != self._run(6)


class TestCollectorPause:
    """``run`` pauses the cyclic collector and puts the caller's
    setting back, whatever that was and however the run ends."""

    class Probe(Process):
        def __init__(self, node_id, fail=False):
            super().__init__(node_id)
            self.fail = fail
            self.collecting = None

        def on_round(self, ctx):
            self.collecting = gc.isenabled()
            if self.fail:
                raise RuntimeError("mid-run failure")
            ctx.terminate()

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("caller_collecting", [True, False])
    @pytest.mark.parametrize("fail", [False, True])
    def test_paused_inside_and_restored_after(self, caller_collecting, fail):
        (gc.enable if caller_collecting else gc.disable)()
        engine = _engine()
        probe = self.Probe(0, fail=fail)
        engine.add_process(probe)
        if fail:
            with pytest.raises(RuntimeError, match="mid-run"):
                engine.run()
        else:
            engine.run()
        assert probe.collecting is False
        assert gc.isenabled() is caller_collecting

    #: The premise of the pause: a run leaves nothing only the cyclic
    #: collector could free.  Both engines, request/reply gossip, both
    #: telemetry depths, and the campaigns that crash, reboot and forge.
    CONFIGS = {
        "array": dict(engine="array"),
        "object": dict(engine="object"),
        "push-pull": dict(push_pull=True),
        "compact-telemetry": dict(collect_telemetry=True),
        "full-telemetry": dict(full_telemetry=True),
        "crash-storm": dict(campaign="crash-storm"),
        "churn": dict(campaign="churn"),
        "tamper-forge": dict(campaign="tamper-forge"),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_run_leaves_no_cyclic_garbage(self, name, monkeypatch):
        from repro.experiments.params import with_params
        from repro.experiments.runner import run_once
        from repro.obs.telemetry import RunTelemetry
        from tests.engines import forced

        params = dict(self.CONFIGS[name])
        telemetry = RunTelemetry() if params.pop("full_telemetry", 0) else None
        engine = params.pop("engine", None)
        unreachable = []
        real_run = SimulationEngine.run

        def measured_run(engine, until=None):
            gc.collect()  # whatever building the world left behind
            stats = real_run(engine, until)
            unreachable.append(gc.collect())
            return stats

        monkeypatch.setattr(SimulationEngine, "run", measured_run)
        with forced(engine) if engine else contextlib.nullcontext():
            result = run_once(
                with_params(n=256, seed=1, **params), telemetry=telemetry
            )
        assert result.rounds > 0
        assert unreachable == [0]
