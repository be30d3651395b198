"""Unit tests for deterministic named RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_path_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_seed_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_int_names_allowed(self):
        assert derive_seed(0, 5, "gossip") == derive_seed(0, 5, "gossip")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(2**70, "x") < 2**64


class TestRngRegistry:
    def test_stream_cached(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("net") is rngs.stream("net")

    def test_streams_independent_of_creation_order(self):
        a = RngRegistry(seed=9)
        b = RngRegistry(seed=9)
        a.stream("one").random(10)  # consume from an unrelated stream
        assert list(a.stream("two").random(5)) == list(
            b.stream("two").random(5)
        )

    def test_same_seed_same_draws(self):
        a = RngRegistry(seed=4).stream("x")
        b = RngRegistry(seed=4).stream("x")
        assert list(a.integers(0, 100, 20)) == list(b.integers(0, 100, 20))

    def test_different_seed_different_draws(self):
        a = RngRegistry(seed=4).stream("x")
        b = RngRegistry(seed=5).stream("x")
        assert list(a.random(8)) != list(b.random(8))

    def test_repr_mentions_seed(self):
        assert "seed=3" in repr(RngRegistry(seed=3))


def _gossip_run(array: bool, n: int = 512):
    """A finished n-member hierarchical gossip run on either engine."""
    from repro.core.aggregates import AverageAggregate
    from repro.core.array_stepper import HierarchicalArrayStepper
    from repro.core.gridbox import GridAssignment, GridBoxHierarchy
    from repro.core.hashing import FairHash
    from repro.core.hierarchical_gossip import build_hierarchical_gossip_group
    from repro.sim.array_engine import ArraySteppedEngine
    from repro.sim.engine import SimulationEngine
    from repro.sim.network import LossyNetwork

    votes = {m: float(m) for m in range(n)}
    assignment = GridAssignment(GridBoxHierarchy(n, 8), votes, FairHash())
    kwargs = {
        "network": LossyNetwork(ucastl=0.25, max_message_size=1 << 20),
        "rngs": RngRegistry(5),
    }
    engine = (
        ArraySteppedEngine(stepper=HierarchicalArrayStepper(), **kwargs)
        if array else SimulationEngine(**kwargs)
    )
    processes = build_hierarchical_gossip_group(
        votes, AverageAggregate(), assignment
    )
    engine.add_processes(processes)
    engine.run()
    return engine.rngs, processes


class TestClaim:
    def test_claimed_seeds_are_derived_seeds(self):
        seeds = RngRegistry(seed=3).claim([4, 1], "gossip")
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            derive_seed(3, "process", 4, "gossip"),
            derive_seed(3, "process", 1, "gossip"),
        ]

    def test_claimed_stream_refused(self):
        rngs = RngRegistry(seed=3)
        rngs.claim([2, 7], "gossip")
        with pytest.raises(ValueError, match="claimed"):
            rngs.stream("process", 7, "gossip")
        rngs.stream("process", 3, "gossip")  # not claimed
        rngs.stream("process", 7, "send-order")  # another name path

    def test_second_owner_refused(self):
        rngs = RngRegistry(seed=3)
        rngs.stream("process", 5, "gossip")
        with pytest.raises(ValueError, match="owner"):
            rngs.claim([4, 5], "gossip")
        rngs.claim([4], "gossip")
        with pytest.raises(ValueError, match="owner"):
            rngs.claim([4], "gossip")
        with pytest.raises(ValueError, match="owner"):
            rngs.claim([6, 6], "gossip")

    def test_array_engine_owns_gossip_streams(self):
        rngs, processes = _gossip_run(array=True)
        assert not [
            key for key in rngs._streams
            if key[:1] == ("process",) and key[2:] == ("gossip",)
        ]
        for proc in processes[:3]:
            with pytest.raises(ValueError, match="claimed"):
                rngs.stream("process", proc.node_id, "gossip")

    def test_object_engine_keeps_generators(self):
        rngs, processes = _gossip_run(array=False)
        proc = next(p for p in processes if p._sampler is not None)
        assert rngs.stream("process", proc.node_id, "gossip") is (
            proc._sampler._rng
        )
