"""Unit tests for the representative-gossiper optimization."""

import pytest

from repro.core import (
    FairHash,
    GossipParams,
    GridAssignment,
    GridBoxHierarchy,
    build_hierarchical_gossip_group,
    get_aggregate,
    measure_completeness,
)
from repro.sim import LossyNetwork, Network, RngRegistry, SimulationEngine


def _run(fraction, n=128, ucastl=0.0, seed=1):
    votes = {i: float(i) for i in range(n)}
    assignment = GridAssignment(
        GridBoxHierarchy(n, 4), votes, FairHash(0)
    )
    processes = build_hierarchical_gossip_group(
        votes, get_aggregate("average"), assignment,
        GossipParams(representative_fraction=fraction),
    )
    engine = SimulationEngine(
        network=LossyNetwork(ucastl, max_message_size=1 << 20),
        rngs=RngRegistry(seed),
        max_rounds=300,
    )
    engine.add_processes(processes)
    engine.run()
    report = measure_completeness(processes, n)
    return report.mean_completeness, engine.network.stats.sent, processes


class TestRepresentatives:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            GossipParams(representative_fraction=0.0)
        with pytest.raises(ValueError):
            GossipParams(representative_fraction=1.5)

    def test_full_fraction_everyone_gossips(self):
        __, full_messages, __ = _run(1.0)
        __, half_messages, __ = _run(0.5)
        assert half_messages < full_messages

    def test_phase1_always_gossips(self):
        """Votes exist nowhere else, so phase 1 ignores the fraction."""
        votes = {i: float(i) for i in range(16)}
        assignment = GridAssignment(
            GridBoxHierarchy(16, 4), votes, FairHash(0)
        )
        processes = build_hierarchical_gossip_group(
            votes, get_aggregate("average"), assignment,
            GossipParams(representative_fraction=0.01),
        ).materialize()
        for process in processes:
            process.phase = 1
            assert process._is_representative()

    def test_role_deterministic(self):
        votes = {i: float(i) for i in range(32)}
        assignment = GridAssignment(
            GridBoxHierarchy(32, 4), votes, FairHash(0)
        )
        params = GossipParams(representative_fraction=0.5)
        group_a = build_hierarchical_gossip_group(
            votes, get_aggregate("average"), assignment, params
        ).materialize()
        group_b = build_hierarchical_gossip_group(
            votes, get_aggregate("average"), assignment, params
        ).materialize()
        for a, b in zip(group_a, group_b):
            a.phase = b.phase = 2
            assert a._is_representative() == b._is_representative()

    def test_half_representatives_keep_most_completeness_lossless(self):
        completeness, __, __ = _run(0.5, ucastl=0.0)
        assert completeness > 0.85

    def test_everyone_still_composes(self):
        """Non-representatives listen and still produce estimates."""
        __, __, processes = _run(0.3)
        assert all(p.result is not None for p in processes)
