"""Unit tests for the unreliable network models."""

import pytest

from repro.sim.engine import Process, SimulationEngine
from repro.sim.network import (
    LossyNetwork,
    MessageTooLarge,
    Network,
    PartitionedNetwork,
    TopologyNetwork,
)
from repro.sim.rng import RngRegistry
from tests.planning import loss_of, plan_block, plan_one

class TestBaseNetwork:
    def test_lossless_delivers_next_round(self):
        network = Network()
        outcome = plan_one(network, RngRegistry(0), sent_round=5)
        assert outcome == 6

    def test_oversized_message_raises(self):
        network = Network(max_message_size=8)
        with pytest.raises(MessageTooLarge):
            plan_one(network, RngRegistry(0), size=9)

    def test_bandwidth_cap_rejects_excess(self):
        network = Network(max_sends_per_round=2)
        outcomes = plan_block(
            network, RngRegistry(0), [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
        )
        assert outcomes == [1, 1, None]
        assert network.stats.rejected_bandwidth == 1
        assert network.stats.sent == 2

    def test_bandwidth_cap_is_per_sender(self):
        network = Network(max_sends_per_round=1)
        outcomes = plan_block(network, RngRegistry(0), [(0, 2, 0), (1, 2, 0)])
        assert outcomes == [1, 1]
        assert network.stats.rejected_bandwidth == 0

    def test_bandwidth_resets_each_round(self):
        # The engine numbers each sender's sends from 0 again at every
        # round boundary: two sends a round under a cap of one lose
        # exactly one a round.
        class Pair(Process):
            def on_round(self, ctx):
                ctx.send(1 - self.node_id, "a")
                ctx.send(1 - self.node_id, "b")
                if ctx.round == 4:
                    ctx.terminate()

        network = Network(max_sends_per_round=1)
        engine = SimulationEngine(network, rngs=RngRegistry(0))
        engine.add_processes([Pair(0), Pair(1)])
        engine.run()
        assert network.stats.sent == network.stats.rejected_bandwidth == 10

    def test_stats_accumulate(self):
        network = Network()
        rngs = RngRegistry(0)
        plan_one(network, rngs, size=4)
        plan_one(network, rngs, size=6)
        assert network.stats.sent == 2
        assert network.stats.bytes_sent == 10
        assert network.stats.dropped == 0


class TestLossyNetwork:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            LossyNetwork(ucastl=1.5)

    def test_zero_loss_never_drops(self):
        network = LossyNetwork(ucastl=0.0)
        rngs = RngRegistry(1)
        for __ in range(100):
            assert plan_one(network, rngs) is not None

    def test_full_loss_always_drops(self):
        network = LossyNetwork(ucastl=1.0)
        rngs = RngRegistry(1)
        for __ in range(50):
            assert plan_one(network, rngs) is None
        assert network.stats.dropped == 50

    def test_loss_rate_statistics(self):
        network = LossyNetwork(ucastl=0.3)
        rngs = RngRegistry(2)
        outcomes = [plan_one(network, rngs) for __ in range(20_000)]
        dropped = sum(1 for outcome in outcomes if outcome is None)
        assert 0.27 < dropped / 20_000 < 0.33


class TestPartitionedNetwork:
    def _network(self, partl=1.0, ucastl=0.0):
        return PartitionedNetwork(
            partition_of=lambda node: 0 if node < 10 else 1,
            partl=partl,
            ucastl=ucastl,
        )

    def test_cross_partition_uses_partl(self):
        network = self._network(partl=1.0, ucastl=0.0)
        rngs = RngRegistry(0)
        assert plan_one(network, rngs, src=1, dest=2) is not None  # same side
        assert plan_one(network, rngs, src=1, dest=15) is None     # crossing
        assert network.stats.dropped_cross_partition == 1

    def test_mapping_accepted(self):
        network = PartitionedNetwork(
            partition_of={0: 0, 1: 1}, partl=1.0, ucastl=0.0
        )
        rngs = RngRegistry(0)
        assert plan_one(network, rngs, src=0, dest=1) is None

    def test_whole_without_a_partition(self):
        network = PartitionedNetwork(ucastl=0.0)
        assert network.partition is None
        assert plan_one(network, RngRegistry(0), src=0, dest=11) == 1
        assert network.stats.dropped_cross_partition == 0

    def test_partl_validated(self):
        with pytest.raises(ValueError):
            self._network(partl=-0.1)

    def test_cross_partition_rate(self):
        network = self._network(partl=0.6, ucastl=0.0)
        rngs = RngRegistry(3)
        drops = sum(
            1 for __ in range(10_000)
            if plan_one(network, rngs, src=0, dest=11) is None
        )
        assert 0.56 < drops / 10_000 < 0.64


class TestPartitionHealing:
    """The network never heals itself: a round-bus subscriber heals it by
    clearing ``partition`` (a campaign's ``PartitionWindow`` does)."""

    def _network(self):
        return PartitionedNetwork(
            partition_of=lambda node: 0 if node < 10 else 1,
            partl=1.0,
            ucastl=0.0,
        )

    @staticmethod
    def _healing_from(network, first_round):
        def on_round(round_number):
            if round_number >= first_round:
                network.partition = None
        return on_round

    def test_never_heals_by_default(self):
        network = self._network()
        rngs = RngRegistry(0)
        for sent_round in (0, 5, 100):
            assert plan_one(network, rngs, src=0, dest=11,
                            sent_round=sent_round) is None
        assert network.partition is not None

    def test_partition_drops_until_heal_round(self):
        network = self._network()
        heal = self._healing_from(network, 5)
        rngs = RngRegistry(0)
        heal(4)
        assert plan_one(network, rngs, src=0, dest=11, sent_round=4) is None
        heal(5)
        assert network.partition is None
        assert plan_one(network, rngs, src=0, dest=11, sent_round=5) == 6

    def test_heal_is_permanent(self):
        network = self._network()
        heal = self._healing_from(network, 3)
        rngs = RngRegistry(0)
        for round_number in range(6):
            heal(round_number)
        assert plan_one(network, rngs, src=0, dest=11, sent_round=5) == 6

    def test_boundary_drop_counter_stops_at_heal(self):
        network = self._network()
        heal = self._healing_from(network, 2)
        rngs = RngRegistry(0)
        heal(0)
        assert plan_one(network, rngs, src=0, dest=11, sent_round=0) is None
        assert network.stats.dropped_cross_partition == 1
        heal(2)
        plan_one(network, rngs, src=0, dest=11, sent_round=2)
        assert network.stats.dropped_cross_partition == 1


class TestTopologyNetwork:
    def _hops(self, src, dest):
        table = {(0, 1): 1, (0, 2): 3, (0, 9): None}
        return table.get((src, dest), 1)

    def test_latency_tracks_hops(self):
        network = TopologyNetwork(hops=self._hops, hop_loss=0.0)
        rngs = RngRegistry(0)
        assert plan_one(network, rngs, src=0, dest=1, sent_round=0) == 1
        assert plan_one(network, rngs, src=0, dest=2, sent_round=0) == 3

    def test_unroutable_always_lost(self):
        network = TopologyNetwork(hops=self._hops, hop_loss=0.0)
        rngs = RngRegistry(0)
        assert plan_one(network, rngs, src=0, dest=9) is None

    def test_loss_compounds_with_hops(self):
        network = TopologyNetwork(hops=self._hops, hop_loss=0.2)
        assert loss_of(network, 0, 1) == pytest.approx(0.2)
        assert loss_of(network, 0, 2) == pytest.approx(1 - 0.8**3)

    def test_self_message_is_free(self):
        network = TopologyNetwork(hops=self._hops, hop_loss=0.9)
        assert loss_of(network, 5, 5) == pytest.approx(0.0)

    def test_hop_loss_validated(self):
        with pytest.raises(ValueError):
            TopologyNetwork(hops=self._hops, hop_loss=2.0)
