"""Unit tests for the stochastic-latency network."""

import pytest

from repro.sim.network import JitterNetwork
from repro.sim.rng import RngRegistry
from tests.planning import plan_block


def _deliveries(network, rngs, count):
    """Plan ``count`` sends 0 -> 1 as one block."""
    return plan_block(network, rngs, [(0, 1, 0)] * count)


class TestJitterNetwork:
    def test_zero_jitter_is_fixed_latency(self):
        network = JitterNetwork(ucastl=0.0, mean_extra_latency=0.0)
        rngs = RngRegistry(0)
        assert _deliveries(network, rngs, 20) == [1] * 20

    def test_latency_at_least_one(self):
        network = JitterNetwork(ucastl=0.0, mean_extra_latency=2.0)
        rngs = RngRegistry(1)
        assert min(_deliveries(network, rngs, 200)) >= 1

    def test_latency_capped(self):
        network = JitterNetwork(
            ucastl=0.0, mean_extra_latency=50.0, max_latency=5
        )
        rngs = RngRegistry(2)
        assert max(_deliveries(network, rngs, 200)) <= 5

    def test_mean_latency_tracks_parameter(self):
        network = JitterNetwork(
            ucastl=0.0, mean_extra_latency=2.0, max_latency=1000
        )
        rngs = RngRegistry(3)
        samples = _deliveries(network, rngs, 5000)
        mean = sum(samples) / len(samples)
        assert 2.6 < mean < 3.4  # 1 + ~2 extra

    def test_loss_still_applies(self):
        network = JitterNetwork(ucastl=1.0, mean_extra_latency=1.0)
        rngs = RngRegistry(4)
        assert _deliveries(network, rngs, 1) == [None]

    def test_validation(self):
        with pytest.raises(ValueError):
            JitterNetwork(mean_extra_latency=-1.0)
        with pytest.raises(ValueError):
            JitterNetwork(max_latency=0)
