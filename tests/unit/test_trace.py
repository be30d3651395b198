"""Unit tests for the tracing subsystem."""

import pytest

from repro.sim.engine import Process, SimulationEngine
from repro.sim.failures import ScheduledFailures
from repro.sim.network import LossyNetwork, Network
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceEvent, Tracer


class Chatter(Process):
    def __init__(self, node_id, target, rounds=3):
        super().__init__(node_id)
        self.target = target
        self.rounds = rounds

    def on_round(self, ctx):
        ctx.send(self.target, "hi")
        if ctx.round + 1 >= self.rounds:
            ctx.terminate()


def _run(network=None, failures=None, tracer=None, rounds=3):
    engine = SimulationEngine(
        network=network or Network(),
        failure_model=failures,
        rngs=RngRegistry(0),
        max_rounds=100,
        tracer=tracer,
    )
    engine.add_processes([Chatter(0, 1, rounds), Chatter(1, 0, rounds)])
    engine.run()
    return engine


class TestTracer:
    def test_send_and_deliver_counted(self):
        tracer = Tracer()
        _run(tracer=tracer)
        assert tracer.counts["send"] == 6
        # last-round sends arrive after both terminated but are delivered
        assert tracer.counts["deliver"] >= 4
        assert tracer.counts["terminate"] == 2

    def test_lost_sends_traced(self):
        tracer = Tracer()
        _run(network=LossyNetwork(ucastl=1.0), tracer=tracer)
        assert tracer.counts["send_lost"] == 6
        assert tracer.counts["send"] == 0

    def test_crash_traced(self):
        tracer = Tracer()
        _run(failures=ScheduledFailures(crash_at={1: [0]}), tracer=tracer)
        assert tracer.counts["crash"] == 1
        crash_events = tracer.of_kind("crash")
        assert crash_events[0].node == 0
        assert crash_events[0].round == 1

    def test_bandwidth_rejection_traced(self):
        tracer = Tracer()
        _run(network=Network(max_sends_per_round=0), tracer=tracer)
        assert tracer.counts["send_rejected"] == 6

    def test_max_events_cap(self):
        tracer = Tracer(max_events=2)
        _run(tracer=tracer)
        assert len(tracer.events) == 2
        assert tracer.dropped_events > 0
        assert "beyond cap" in tracer.summary()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record(TraceEvent(0, "explode", 0))

    def test_summary_lists_all_kinds(self):
        text = Tracer().summary()
        for kind in ("send", "deliver", "crash", "terminate"):
            assert kind in text

    def test_no_tracer_is_fine(self):
        engine = _run(tracer=None)
        assert engine.tracer is None
