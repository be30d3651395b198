"""The explicit runtime contract (repro.core.runtime).

Both substrates — the simulator's shared Context and the UDP runtime's
per-node NetContext — must conform *structurally* to the Protocol
interfaces the protocols are written against, and every protocol
process class must match the GroupProcess shape.  Conformance is
checked with isinstance (the Protocols are runtime_checkable), which
pins method presence; a public-name comparison pins that a context
offers nothing beyond the contract; behavioural fine print (deterministic rng_for,
monotone rounds) is pinned by the cross-runtime golden suite.
"""

import gc

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


def _public_names(obj) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("_")}


class TestContextIsExactlyTheContract:
    """A context offers the protocol the four contract calls and
    nothing else: no liveness oracle, no handle on the run's registry."""

    CONTRACT = {"round", "rng_for", "send", "terminate"}

    def test_protocol_members_are_the_four_calls(self):
        assert {
            name for name in vars(Context) if not name.startswith("_")
        } == self.CONTRACT

    def test_simulator_context_has_no_extra_public_member(self):
        # ``current`` is the engine's slot for the acting process.
        assert _public_names(_sim_context()) - {"current"} == self.CONTRACT

    def test_net_context_has_no_extra_public_member(self):
        assert _public_names(_net_node().ctx) == self.CONTRACT

    def test_simulator_stream_is_the_registry_object(self):
        ctx = _sim_context()
        ctx.current = FlatGossipProcess(
            node_id=2, vote=1.0, function=get_aggregate("average"),
            view=(0, 1, 2, 3), total_rounds=4,
        )
        stream = ctx.rng_for("gossip")
        assert stream is ctx._engine.rngs.stream("process", 2, "gossip")
        assert ctx.rng_for("gossip") is stream

    def test_net_stream_is_the_registry_object(self):
        ctx = _net_node().ctx
        stream = ctx.rng_for("gossip")
        assert stream is ctx._rngs.stream("process", 0, "gossip")
        assert ctx.rng_for("gossip") is stream


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
        ).materialize()
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

    def test_send_fire_and_forget_terminate_once(self):
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
        assert node.ctx.send(2, payload) is None
        assert sent == [("loopback", 2)]
        # Unknown destination: the datagram is "lost on the wire",
        # silently, as for any fire-and-forget send.
        assert node.ctx.send(3, payload) is None
        assert len(sent) == 1
        node.ctx.terminate()
        node.ctx.terminate()
        assert node.process.terminated


class TestADroppedRunIsFreedByReferenceCounting:
    """A context points back at what hosts it, yet once nothing holds a
    finished run, reference counting alone frees all of it: the object
    engine under a forging campaign (its planner is the engine's send
    tap), and a loopback group of NetNodes."""

    @staticmethod
    def _cyclic_garbage_after(run) -> int:
        run()  # imports and first-use caches
        collecting = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            run()
            return gc.collect()
        finally:
            (gc.enable if collecting else gc.disable)()

    def test_simulator_run(self):
        from repro.experiments.params import with_params
        from repro.experiments.runner import run_once

        params = with_params(n=256, seed=1, campaign="tamper-forge")
        assert self._cyclic_garbage_after(lambda: run_once(params)) == 0

    def test_loopback_group(self):
        from repro.net.loopback import run_loopback_group

        assert self._cyclic_garbage_after(
            lambda: run_loopback_group(64, k=4, seed=0)
        ) == 0
