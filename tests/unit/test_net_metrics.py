"""Net-runtime metrics: pinned family names, liveness RTT, loopback feed.

Satellite S1 of the live-metrics layer.  The family names below are a
public contract — ``repro top``, the exposition smoke and any operator
dashboards select on them — so this suite pins the full vocabulary a
live node registers.  RTT is measured in *ticks* (tick → pong-tick),
never wall-clock: under the loopback router's one-tick-latency model a
ping answered immediately comes back exactly two ticks later, which
makes the histogram's contents deterministic and assertable.
"""

import pytest

from repro.net.liveness import LivenessView
from repro.net.loopback import run_loopback_group
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
        # Every NetNode tees its phase sink into the registry, so the
        # same repro_phase_events_total vocabulary the simulator uses
        # shows up on the live side too.
        counter = registry.counter(
            "repro_phase_events_total", labelnames=("kind",)
        )
        assert counter.labels("phase_enter").value > 0
        assert counter.labels("finalize").value == 16


class TestLoopbackFeed:
    def test_tx_counters_match_the_report(self, loopback):
        registry, report = loopback
        tx = registry.counter(
            "repro_net_tx_total", labelnames=("node", "type")
        )
        by_kind: dict[str, float] = {}
        for (__, kind), child in tx._children.items():
            by_kind[kind] = by_kind.get(kind, 0) + child.value
        # stats.messages_sent counts every transmitted frame — gossip,
        # probes and handshakes alike — so the registry total must too.
        assert sum(by_kind.values()) == report.messages_sent
        assert by_kind["gossip"] > 0
        assert by_kind["ping"] == report.net["pings_sent"]
        tx_bytes = registry.counter(
            "repro_net_tx_bytes_total", labelnames=("node", "type")
        )
        assert sum(
            child.value for child in tx_bytes._children.values()
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
        pongs = registry.counter(
            "repro_net_pongs_received_total", labelnames=("node",)
        )
        assert pongs.value == record["pongs_received"]
        rtt = registry.snapshot()["metrics"]["repro_net_ping_rtt_ticks"]
        assert sum(sample["count"] for sample in rtt["samples"]) == 1
        assert record["frames_rejected"] == 0


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
        view = LivenessView(node_id=0, group_size=4, miss_threshold=8)
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
