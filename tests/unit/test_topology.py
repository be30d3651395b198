"""Unit tests for the sensor field and ad-hoc network substrate."""

import numpy as np
import pytest

from repro.topology.adhoc import AdHocNetwork
from repro.topology.field import Hotspot, ScalarField, SensorField


class TestScalarField:
    def test_constant_field(self):
        field = ScalarField(base=21.0)
        rng = np.random.default_rng(0)
        assert field.sample(0.3, 0.8, rng) == 21.0

    def test_gradient(self):
        field = ScalarField(base=0.0, gradient=(10.0, 0.0))
        rng = np.random.default_rng(0)
        assert field.sample(0.5, 0.0, rng) == pytest.approx(5.0)

    def test_hotspot_peaks_at_center(self):
        hotspot = Hotspot(x=0.5, y=0.5, amplitude=8.0, radius=0.1)
        field = ScalarField(base=0.0, hotspots=(hotspot,))
        rng = np.random.default_rng(0)
        center = field.sample(0.5, 0.5, rng)
        edge = field.sample(0.9, 0.9, rng)
        assert center == pytest.approx(8.0)
        assert edge < 0.1

    def test_noise_varies(self):
        field = ScalarField(base=0.0, noise_std=1.0)
        rng = np.random.default_rng(0)
        samples = {field.sample(0.1, 0.1, rng) for __ in range(5)}
        assert len(samples) == 5


class TestSensorField:
    def test_uniform_random_count_and_range(self):
        rng = np.random.default_rng(1)
        sensors = SensorField.uniform_random(50, rng)
        assert len(sensors) == 50
        for x, y in sensors.positions.values():
            assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_regular_grid(self):
        sensors = SensorField.regular_grid(9)
        assert len(sensors) == 9

    def test_position_validation(self):
        with pytest.raises(ValueError):
            SensorField({0: (1.2, 0.0)})

    def test_votes_sampled_per_sensor(self):
        rng = np.random.default_rng(2)
        sensors = SensorField.uniform_random(10, rng)
        votes = sensors.votes(ScalarField(base=20.0), rng)
        assert set(votes) == set(sensors.positions)
        assert all(v == 20.0 for v in votes.values())

    def test_start_id_offset(self):
        rng = np.random.default_rng(3)
        sensors = SensorField.uniform_random(5, rng, start_id=100)
        assert sorted(sensors.positions) == [100, 101, 102, 103, 104]


class TestAdHocNetwork:
    def _line_network(self):
        positions = {i: (0.1 * i, 0.0) for i in range(5)}
        return AdHocNetwork(positions, radius=0.11)

    def test_line_topology_hops(self):
        network = self._line_network()
        assert network.hops(0, 1) == 1
        assert network.hops(0, 4) == 4
        assert network.hops(2, 2) == 0

    def test_connectivity(self):
        assert self._line_network().is_connected()

    def test_disconnected_components(self):
        positions = {0: (0.0, 0.0), 1: (0.05, 0.0), 2: (0.9, 0.9)}
        network = AdHocNetwork(positions, radius=0.1)
        assert not network.is_connected()
        assert network.hops(0, 2) is None
        assert network.largest_component() == {0, 1}

    def test_mean_hops_line(self):
        network = self._line_network()
        # Pairs of a 5-line: mean distance = 2.0
        assert network.mean_hops() == pytest.approx(2.0)

    def test_degree_stats(self):
        mean_degree, min_degree = self._line_network().degree_stats()
        assert min_degree == 1
        assert mean_degree == pytest.approx((1 + 2 + 2 + 2 + 1) / 5)

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            AdHocNetwork({0: (0.0, 0.0)}, radius=0.0)

    def test_plugs_into_topology_network(self):
        from repro.sim.network import TopologyNetwork
        from tests.planning import loss_of
        adhoc = self._line_network()
        network = TopologyNetwork(hops=adhoc.hops, hop_loss=0.1)
        assert loss_of(network, 0, 4) == pytest.approx(1 - 0.9**4)
