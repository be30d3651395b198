"""The protocol knobs have one source: ``GossipParams``.

``RunConfig`` / ``NodeConfig`` take the mirrored fields' defaults from
``GossipParams`` itself and ``GossipParams.from_config`` reads them back
by name, so there is no copy to drift; what is left to check is that
every knob a config carries reaches the process.
"""

from dataclasses import replace

from repro.experiments.params import with_params
from repro.experiments.runner import _build_processes
from repro.sim.rng import RngRegistry


class TestRunnerForwarding:
    def test_every_mirrored_field_reaches_the_process(self):
        overrides = {
            "fanout_m": 3,
            "rounds_factor_c": 1.7,
            "rounds_per_phase": 9,
            "early_bump": False,
            "batch_values": False,
            "independent_values": True,
            "prefer_coverage": False,
            "push_pull": True,
            "representative_fraction": 0.5,
            "adaptive_deadlines": True,
            "final_retransmit": 2,
        }
        config = with_params(n=16, **overrides)
        votes = {i: 1.0 for i in range(16)}
        processes, __ = _build_processes(config, votes, RngRegistry(0))
        params = processes[0].params
        for field, value in overrides.items():
            assert getattr(params, field) == value, field

    def test_flat_gossip_budget_is_the_hierarchys(self):
        config = with_params(
            n=16, protocol="flat_gossip", rounds_per_phase=9,
            adaptive_deadlines=True,
        )
        votes = {i: 1.0 for i in range(16)}
        twin = replace(config, protocol="hierarchical_gossip")
        __, flat_horizon = _build_processes(config, votes, RngRegistry(0))
        __, horizon = _build_processes(twin, votes, RngRegistry(0))
        assert flat_horizon == horizon

    def test_node_config_knobs_reach_the_net_process(self):
        from repro.core.hierarchical_gossip import GossipParams
        from repro.net.node import NetNode, NodeConfig

        config = NodeConfig(
            node_id=0, group_size=8, fanout_m=3, rounds_factor_c=1.7
        )
        node = NetNode(config, transport_send=lambda data, address: None)
        assert node.process.params == GossipParams(
            fanout_m=3, rounds_factor_c=1.7
        )
