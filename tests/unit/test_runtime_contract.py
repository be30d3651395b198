"""The explicit runtime contract (repro.core.runtime).

Both substrates — the simulator's shared Context and the UDP runtime's
per-node NetContext — must conform *structurally* to the Protocol
interfaces the protocols are written against, and every protocol
process class must match the GroupProcess shape.  Conformance is
checked with isinstance (the Protocols are runtime_checkable), which
pins method presence; behavioural fine print (deterministic rng_for,
monotone rounds) is pinned by the cross-runtime golden suite.
"""

from repro.baselines.flat_gossip import FlatGossipProcess
from repro.core.aggregates import get_aggregate
from repro.core.gridbox import shared_dense_assignment
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import build_hierarchical_gossip_group
from repro.core.runtime import Context, GroupProcess
from repro.net.node import NetContext, NetNode, NodeConfig
from repro.sim.engine import Context as SimContext
from repro.sim.engine import SimulationEngine
from repro.sim.network import LossyNetwork
from repro.sim.rng import RngRegistry


def _sim_context() -> SimContext:
    engine = SimulationEngine(
        LossyNetwork(ucastl=0.0), rngs=RngRegistry(seed=0)
    )
    return SimContext(engine)


def _net_node() -> NetNode:
    config = NodeConfig(node_id=0, group_size=4)
    return NetNode(config, transport_send=lambda data, addr: None)


class TestContextConformance:
    def test_simulator_context_satisfies_the_contract(self):
        assert isinstance(_sim_context(), Context)

    def test_net_context_satisfies_the_contract(self):
        assert isinstance(_net_node().ctx, Context)
        assert isinstance(_net_node().ctx, NetContext)

    def test_contract_is_not_vacuous(self):
        class Half:
            @property
            def round(self):
                return 0

            def send(self, dest, payload, size=1):
                return True

        assert not isinstance(Half(), Context)


class TestNetNodeInputs:
    def test_vote_and_view_are_the_group_draw_and_the_shared_membership(
        self
    ):
        from repro.net.node import make_votes

        for node_id in (0, 3):
            config = NodeConfig(node_id=node_id, group_size=4, seed=5)
            process = NetNode(config, lambda data, addr: None).process
            assert process.vote == make_votes(config)[node_id]
            assert type(process.vote) is float
            assert process.view is process.assignment.member_ids
            assert process.view == tuple(make_votes(config))


class TestProcessConformance:
    def test_hierarchical_gossip_process_matches_group_process(self):
        votes = {i: float(i) for i in range(8)}
        assignment = shared_dense_assignment(8, 4, 8, FairHash(salt=0))
        processes = build_hierarchical_gossip_group(
            votes, get_aggregate("average"), assignment
        )
        assert all(isinstance(p, GroupProcess) for p in processes)

    def test_baseline_process_matches_group_process(self):
        process = FlatGossipProcess(
            node_id=0, vote=1.0, function=get_aggregate("average"),
            view=(0, 1, 2, 3), total_rounds=4,
        )
        assert isinstance(process, GroupProcess)


class TestNetContextBehaviour:
    def test_round_tracks_ticks_and_rng_matches_simulator_derivation(self):
        node = _net_node()
        assert node.ctx.round == 0
        expected = RngRegistry(0).stream("process", 0, "gossip")
        draw = node.ctx.rng_for("gossip").random()
        assert draw == expected.random()

    def test_send_reports_accepted_and_terminate_is_idempotent(self):
        from repro.core.aggregates import AggregateState
        from repro.core.messages import GossipValue

        sent = []
        config = NodeConfig(node_id=1, group_size=4)
        node = NetNode(config, lambda data, addr: sent.append(addr))
        node.book.record(2, ("loopback", 2))
        payload = GossipValue(
            phase=1, key=1,
            state=AggregateState(payload=1.0, members=frozenset({1})),
        )
        assert node.ctx.send(2, payload) is True
        assert sent == [("loopback", 2)]
        # Unknown destination: the datagram is "lost on the wire" —
        # fire-and-forget still reports acceptance.
        assert node.ctx.send(3, payload) is True
        assert len(sent) == 1
        node.ctx.terminate()
        node.ctx.terminate()
        assert node.process.terminated
