"""Net-runtime metrics: pinned family names, liveness RTT, loopback feed.

Satellite S1 of the live-metrics layer.  The family names below are a
public contract — ``repro top``, the exposition smoke and any operator
dashboards select on them — so this suite pins the full vocabulary a
live node registers.  RTT is measured in *ticks* (tick → pong-tick),
never wall-clock: under the loopback router's one-tick-latency model a
ping answered immediately comes back exactly two ticks later, which
makes the histogram's contents deterministic and assertable.
"""

from collections import Counter

import pytest

from repro.net.liveness import LivenessView
from repro.net.loopback import (
    LoopbackRouter,
    loopback_address,
    run_loopback_group,
)
from repro.net.node import NetNode, NodeConfig
from repro.obs.metrics import MetricsRegistry

#: Every family a live node registers, pinned by name.  Renaming any of
#: these breaks repro top and the metrics-smoke assertions — change the
#: consumers in the same commit or don't.
NET_FAMILIES = (
    "repro_net_tx_total",
    "repro_net_tx_bytes_total",
    "repro_net_rx_total",
    "repro_net_rx_rejected_total",
    "repro_net_gossip_dropped_unstarted_total",
    "repro_net_sends_rejected_total",
    "repro_net_joins_sent_total",
    "repro_net_pings_sent_total",
    "repro_net_pongs_received_total",
    "repro_net_ping_rtt_ticks",
    "repro_net_round",
    "repro_net_suspected_peers",
    "repro_net_started",
    "repro_net_terminated",
)


def _samples(registry, family):
    """``{label tuple: value}`` of one family, read the way every
    consumer does: through ``snapshot()`` (which runs the collectors)."""
    return {
        tuple(sample["labels"]): sample["value"]
        for sample in registry.snapshot()["metrics"][family]["samples"]
    }


@pytest.fixture(scope="module")
def loopback():
    """One 16-node loopback run with a shared registry attached."""
    registry = MetricsRegistry()
    report = run_loopback_group(16, seed=3, registry=registry)
    return registry, report


class TestPinnedFamilies:
    def test_every_net_family_is_registered(self, loopback):
        registry, __ = loopback
        families = set(registry.families())
        missing = [n for n in NET_FAMILIES if n not in families]
        assert not missing, f"unregistered net families: {missing}"

    def test_phase_events_flow_through_the_node_sink(self, loopback):
        registry, __ = loopback
        # Every NetNode counts its phase events and its collector adds
        # them to the same repro_phase_events_total vocabulary the
        # simulator uses.  Collector values are as fresh as the last
        # read, so read through a snapshot.
        events = {
            kind: value for (kind,), value in _samples(
                registry, "repro_phase_events_total"
            ).items()
        }
        assert events["phase_enter"] > 0
        assert events["finalize"] == 16

    def test_shared_phase_family_adds_new_events(self):
        # A snapshot after every tick: each read must add only what a
        # node counted since its last read.  Setting a node's total, or
        # adding totals again, breaks the sum over the group.
        registry = MetricsRegistry()
        router = LoopbackRouter()
        nodes = {}
        for node_id in range(16):
            address = loopback_address(node_id)
            node = NetNode(
                NodeConfig(node_id=node_id, group_size=16, seed=3),
                router.sender_for(address), registry=registry,
            )
            node.register_self(address)
            for peer in range(16):
                node.book.record(peer, loopback_address(peer))
            nodes[address] = node
        reads = 0
        while not all(node.terminated for node in nodes.values()):
            for data, dest, src in router.take():
                nodes[dest].datagram_received(data, src)
            for node in nodes.values():
                node.tick()
            registry.snapshot()
            reads += 1
        assert reads > 2
        total = sum(
            (node.phase_trace.counts for node in nodes.values()), Counter()
        )
        events = {
            kind: value for (kind,), value in _samples(
                registry, "repro_phase_events_total"
            ).items()
        }
        assert events == dict(total)
        assert events["finalize"] == 16


class TestLoopbackFeed:
    def test_tx_counters_match_the_report(self, loopback):
        registry, report = loopback
        by_kind: dict[str, float] = {}
        for (__, kind), value in _samples(
            registry, "repro_net_tx_total"
        ).items():
            by_kind[kind] = by_kind.get(kind, 0) + value
        # stats.messages_sent counts every transmitted frame — gossip,
        # probes and handshakes alike — so the registry total must too.
        assert sum(by_kind.values()) == report.messages_sent
        assert by_kind["gossip"] > 0
        assert by_kind["ping"] == report.net["pings_sent"]
        assert sum(
            _samples(registry, "repro_net_tx_bytes_total").values()
        ) == report.bytes_sent

    def test_rtt_histogram_saw_the_two_tick_loopback(self, loopback):
        registry, report = loopback
        family = registry.snapshot()["metrics"]["repro_net_ping_rtt_ticks"]
        assert family["buckets"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        total = sum(sample["count"] for sample in family["samples"])
        assert total == report.net["pongs_received"] > 0
        # One-tick latency each way: every loopback RTT is exactly 2,
        # so everything lands in the le=2 bucket (index 1).
        for sample in family["samples"]:
            assert sample["count"] == sample["counts"][1]
        assert report.net["mean_rtt_ticks"] == 2.0

    def test_terminal_gauges_after_convergence(self, loopback):
        registry, report = loopback
        assert report.converged
        snapshot = registry.snapshot()["metrics"]
        for name, expected in (("repro_net_started", 1),
                               ("repro_net_terminated", 1),
                               ("repro_net_suspected_peers", 0)):
            values = [s["value"] for s in snapshot[name]["samples"]]
            assert values == [expected] * 16, name

    def test_report_net_record_is_json_ready(self, loopback):
        __, report = loopback
        expected_keys = {
            "datagrams_received", "frames_rejected", "frames_oversize",
            "joins_sent",
            "gossip_dropped_unstarted", "sends_rejected", "pings_sent",
            "pongs_received", "mean_rtt_ticks", "suspected_peers",
        }
        assert set(report.net) == expected_keys
        assert report.net["pings_sent"] >= report.net["pongs_received"]

    def test_registry_is_optional_and_changes_nothing(self):
        plain = run_loopback_group(16, seed=3)
        registered = run_loopback_group(
            16, seed=3, registry=MetricsRegistry()
        )
        assert plain.estimates == registered.estimates
        assert plain.rounds == registered.rounds
        assert plain.messages_sent == registered.messages_sent
        assert plain.net == registered.net

    def test_registry_equals_record_under_hostile_ping_pong(self):
        """Pings and pongs naming a ``src`` outside the group (or the
        node itself) must move the registry and the run record alike."""
        from repro.net.codec import Ping, Pong, encode
        from repro.net.node import NetNode, NodeConfig, net_stats_record

        registry = MetricsRegistry()
        node = NetNode(
            NodeConfig(node_id=0, group_size=4),
            transport_send=lambda data, addr: None, registry=registry,
        )
        node.liveness.record_ping_sent(1, tick=0)
        for src in (1, 1, 0, 4, 10 ** 6):  # answer, stray, self, 2x alien
            node.datagram_received(encode(Pong(src=src)), ("x", 1))
            node.datagram_received(encode(Ping(src=src)), ("x", 1))
        record = net_stats_record([node])
        assert record["pongs_received"] == 2
        pongs = _samples(registry, "repro_net_pongs_received_total")
        assert pongs == {("0",): record["pongs_received"]}
        rtt = registry.snapshot()["metrics"]["repro_net_ping_rtt_ticks"]
        assert sum(sample["count"] for sample in rtt["samples"]) == 1
        assert record["frames_rejected"] == 0


class TestOneLedger:
    """Every reader of a node's counts — registry, run record, the
    ``NodeStats`` attributes — sees the same number, because there is
    one count and a table (``node._LEDGER``) of how to read it."""

    @staticmethod
    def _node(registry, group_size=4):
        from repro.net.node import NetNode, NodeConfig

        sent = []
        node = NetNode(
            NodeConfig(node_id=0, group_size=group_size),
            transport_send=lambda data, addr: sent.append(data),
            registry=registry,
        )
        node.register_self(("127.0.0.1", 9000))
        return node, sent

    @staticmethod
    def _gossip(node, members=None):
        """A phase-1 batch keyed by a box mate of ``node``: the mate's
        own vote, or a state over ``members``."""
        from repro.core.aggregates import AggregateState
        from repro.core.messages import GossipBatch
        from repro.net.codec import Gossip, encode

        assignment = node.process.assignment
        mate = next(
            member for member in assignment.members_of_box(
                assignment.box_of(node.config.node_id)
            ) if member != node.config.node_id
        )
        if members is None:
            members = {assignment.rank_of(mate)}
        return encode(Gossip(src=1, sent_round=0, payload=GossipBatch(
            phase=1,
            entries=((mate, AggregateState((5.0, len(members)), members)),),
        )))

    def test_every_reader_agrees_on_a_mixed_frame_sequence(self):
        from repro.core.aggregates import AggregateState
        from repro.core.gridbox import SubtreeId
        from repro.core.intervals import IntervalMask
        from repro.core.messages import GossipValue
        from repro.net.codec import Join, Ping, Pong, Welcome, encode
        from repro.net.node import _LEDGER, net_stats_record

        registry = MetricsRegistry()
        node, sent = self._node(registry, group_size=100_000)
        peer = ("127.0.0.1", 9001)
        rx = lambda data: node.datagram_received(data, peer)  # noqa: E731

        node.seeds = (peer,)
        node.tick()  # book incomplete: one join, no round
        rx(self._gossip(node))  # valid, but the process has not started
        rx(encode(Join(node_id=1, host=peer[0], port=peer[1])))  # welcomed
        rx(encode(Join(node_id=100_000, host="h", port=1)))  # no such id
        rx(encode(Welcome(book={2: ("127.0.0.1", 9002)})))
        rx(b"")
        rx(b"not a frame")
        node.liveness.record_ping_sent(1, tick=0)
        for src in (1, 1, 0, 100_000, 10 ** 9):  # answer, stray, self, alien
            rx(encode(Pong(src=src)))
            rx(encode(Ping(src=src)))
        node.started = True
        node.process.on_start(node.ctx)
        rx(self._gossip(node, {100_000}))  # coverage past the group
        rx(self._gossip(node))  # valid, delivered
        forged = AggregateState(
            (1.0, 40_000), IntervalMask(range(0, 80_000, 2))
        )
        node.ctx.send(1, GossipValue(3, SubtreeId(0, 0), forged))  # oversize
        honest = GossipValue(1, 0, AggregateState((1.0, 1), {0}))
        node.ctx.send(1, honest)
        node.ctx.send(7, honest)  # member 7 has no address
        node.tick()  # a real round: probe + gossip

        record = net_stats_record([node])
        snapshot = registry.snapshot()["metrics"]
        for family, __, kind, labels, read, key in _LEDGER:
            expected = read(node)
            got = {
                tuple(sample["labels"]): sample["value"]
                for sample in snapshot[family]["samples"]
            }
            assert snapshot[family]["type"] == kind
            assert snapshot[family]["labels"] == list(labels)
            if isinstance(expected, dict):
                assert got == {
                    ("0", frame): count for frame, count in expected.items()
                }, family
            else:
                assert got == {("0",): expected}, family
                if key is not None:
                    assert record[key] == expected, family
        stats = node.stats
        assert stats.messages_sent == sum(stats.tx.values()) == len(sent)
        assert stats.bytes_sent == sum(map(len, sent))
        assert stats.datagrams_received == record["datagrams_received"]
        assert stats.datagrams_received == sum(stats.rx.values()) + 2
        # ...and the counts are the ones the sequence should produce.
        assert stats.rx == {
            "gossip": 3, "join": 2, "welcome": 1, "ping": 5, "pong": 5,
        }
        assert stats.frames_rejected == 3  # two undecodable + refused
        assert node.process.refused == 1
        assert stats.gossip_dropped_unstarted == 1
        assert stats.frames_oversize == 1
        assert stats.sends_rejected >= 1
        assert stats.tx["gossip"] >= 1
        assert record["joins_sent"] == stats.tx["join"] == 1
        assert stats.tx["welcome"] == 1
        assert stats.tx["pong"] == 3  # srcs with an address: 1, 1, self
        assert record["pongs_received"] == 2
        rtt = snapshot["repro_net_ping_rtt_ticks"]["samples"]
        assert [s["count"] for s in rtt] == [node.liveness.rtt_count] == [1]

    def test_a_datagram_after_the_last_tick_is_in_the_next_snapshot(self):
        """``serve --linger``: the ticker has stopped, frames still
        arrive, and ``/metrics`` must keep counting them."""
        from repro.net.codec import Ping, encode

        registry = MetricsRegistry()
        node, __ = self._node(registry)
        for peer in range(1, 4):
            node.book.record(peer, ("127.0.0.1", 9000 + peer))
        node.tick()
        before = _samples(registry, "repro_net_rx_total")[("0", "ping")]
        pongs = _samples(registry, "repro_net_tx_total")[("0", "pong")]
        node.datagram_received(encode(Ping(src=2)), ("127.0.0.1", 9002))
        assert _samples(registry, "repro_net_rx_total")[
            ("0", "ping")] == before + 1
        assert 'type="pong"} %d' % (pongs + 1) in registry.render_prometheus()


class TestLivenessRtt:
    def test_ping_pong_round_trip(self):
        view = LivenessView(node_id=0, group_size=4)
        view.record_ping_sent(1, tick=10)
        assert view.pings_sent == 1
        rtt = view.record_pong(1, tick=12)
        assert rtt == 2
        assert view.pongs_received == 1
        assert view.last_rtt == 2
        assert view.mean_rtt() == 2.0

    def test_stray_pong_counts_but_has_no_rtt(self):
        view = LivenessView(node_id=0, group_size=4)
        assert view.record_pong(1, tick=5) is None
        assert view.pongs_received == 1
        assert view.mean_rtt() is None

    def test_pong_is_a_sign_of_life(self):
        view = LivenessView(node_id=0, group_size=4)
        view.record_pong(1, tick=5)
        assert not view.is_suspected(1, tick=7)

    def test_reping_overwrites_the_outstanding_mark(self):
        view = LivenessView(node_id=0, group_size=4)
        view.record_ping_sent(1, tick=0)
        view.record_ping_sent(1, tick=10)
        assert view.record_pong(1, tick=11) == 1

    def test_self_and_out_of_range_peers_are_ignored(self):
        view = LivenessView(node_id=0, group_size=4)
        view.record_ping_sent(0, tick=1)
        view.record_ping_sent(9, tick=1)
        assert view.pings_sent == 0
        assert view.record_pong(0, tick=2) is None
        assert view.record_pong(9, tick=2) is None
        assert view.pongs_received == 0

    def test_mean_averages_multiple_rtts(self):
        view = LivenessView(node_id=0, group_size=8)
        view.record_ping_sent(1, tick=0)
        view.record_pong(1, tick=2)
        view.record_ping_sent(2, tick=0)
        view.record_pong(2, tick=6)
        assert view.mean_rtt() == 4.0
        assert view.rtt_count == 2
