"""Unit tests for the engine's deterministic begin-round event bus."""

import pytest

from repro.sim.engine import Process, SimulationEngine
from repro.sim.events import RoundBus
from repro.sim.failures import NoFailures
from repro.sim.network import LossyNetwork
from repro.sim.rng import RngRegistry


class TestRoundBus:
    def test_emit_preserves_subscription_order(self):
        bus = RoundBus()
        calls = []
        bus.subscribe(lambda r: calls.append(("a", r)))
        bus.subscribe(lambda r: calls.append(("b", r)))
        bus.emit(3)
        bus.emit(4)
        assert calls == [("a", 3), ("b", 3), ("a", 4), ("b", 4)]

    def test_subscribe_returns_callback(self):
        bus = RoundBus()
        def callback(round_number):
            return None

        assert bus.subscribe(callback) is callback
        assert len(bus) == 1

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            RoundBus().subscribe("not-a-callback")


class _Counter(Process):
    """Terminates after three rounds."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.rounds_seen = 0

    def on_round(self, ctx):
        self.rounds_seen += 1
        if self.rounds_seen >= 3:
            ctx.terminate()


class TestEngineIntegration:
    def _engine(self):
        engine = SimulationEngine(
            network=LossyNetwork(ucastl=0.0),
            failure_model=NoFailures(),
            rngs=RngRegistry(0),
            max_rounds=10,
        )
        engine.add_processes([_Counter(0)])
        return engine

    def test_bus_starts_empty(self):
        # The network has no round hook: nothing subscribes until a
        # campaign (or a probe) does, on either engine.
        from repro.core.array_stepper import HierarchicalArrayStepper
        from repro.sim.array_engine import ArraySteppedEngine

        assert len(self._engine().round_bus) == 0
        array = ArraySteppedEngine(
            stepper=HierarchicalArrayStepper(),
            network=LossyNetwork(ucastl=0.0), rngs=RngRegistry(0),
        )
        assert len(array.round_bus) == 0

    def test_bus_emits_every_round_in_order(self):
        seen = []
        engine = self._engine()
        engine.round_bus.subscribe(seen.append)
        engine.run()
        assert seen == sorted(seen)
        assert len(seen) == engine.stats.rounds_executed
