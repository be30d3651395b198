"""Ping-based peer liveness — a *metrics* view, never a protocol input.

Each tick a node pings one peer, chosen round-robin over the address
book, and records the tick it last heard anything (ping, pong, or
gossip) from each peer.  A peer silent for ``miss_threshold`` probe
intervals is *suspected*.

The suspicion list feeds ``repro serve`` status output and the
``is_alive`` answer of :class:`repro.net.NetContext` — which protocol
code is forbidden to call (lint rule REP010).  Hierarchical Gossiping
needs no failure detector (the paper's central point); this module
exists so an operator watching a live group can see who went quiet,
not so the protocol can react to it.

Probe targets are drawn round-robin rather than from a random stream on
purpose: the protocol's deterministic per-process streams must see
exactly the same draw sequence as under the simulator, and a control-
plane consumer of randomness would be one refactor away from violating
that.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["LivenessView"]

#: Ping→pong round trips in ticks; loopback is 2 (one tick each way).
RTT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class LivenessView:
    """Last-heard bookkeeping for one node over its peer set."""

    def __init__(
        self, node_id: int, group_size: int, miss_threshold: int = 8
    ):
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be positive")
        self.node_id = node_id
        self.group_size = group_size
        self.miss_threshold = miss_threshold
        #: peer id -> tick we last heard any datagram from it.
        self._last_heard: dict[int, int] = {}
        self._probe_cursor = 0
        # -- ping/pong RTT accounting (ticks, never wall-clock) --------
        self.pings_sent = 0
        self.pongs_received = 0
        self.rtt_count = 0
        self.rtt_total = 0
        #: RTTs per :data:`RTT_BUCKETS` bound (non-cumulative; the
        #: trailing slot is the overflow bucket).
        self.rtt_counts = [0] * (len(RTT_BUCKETS) + 1)
        self.last_rtt: int | None = None
        #: peer id -> tick of the most recent un-answered ping to it.
        self._ping_sent_at: dict[int, int] = {}

    def record_heard(self, peer: int, tick: int) -> None:
        """Any datagram from ``peer`` counts as a sign of life."""
        if peer != self.node_id and 0 <= peer < self.group_size:
            self._last_heard[peer] = tick

    def record_ping_sent(self, peer: int, tick: int) -> None:
        """A probe went out to ``peer`` at ``tick`` (RTT start mark)."""
        if peer != self.node_id and 0 <= peer < self.group_size:
            self.pings_sent += 1
            self._ping_sent_at[peer] = tick

    def record_pong(self, peer: int, tick: int) -> int | None:
        """A pong came back from ``peer``; returns the RTT in ticks.

        Also counts as a sign of life.  ``None`` when no ping to the
        peer is outstanding (a stray or duplicated pong).
        """
        self.record_heard(peer, tick)
        if not (peer != self.node_id and 0 <= peer < self.group_size):
            return None
        self.pongs_received += 1
        sent = self._ping_sent_at.pop(peer, None)
        if sent is None:
            return None
        rtt = tick - sent
        self.rtt_count += 1
        self.rtt_total += rtt
        self.rtt_counts[bisect_left(RTT_BUCKETS, rtt)] += 1
        self.last_rtt = rtt
        return rtt

    def mean_rtt(self) -> float | None:
        """Mean observed ping→pong round trip in ticks (None if none)."""
        if self.rtt_count == 0:
            return None
        return self.rtt_total / self.rtt_count

    def next_probe_target(self) -> int | None:
        """The peer to ping this tick (round-robin, skipping self)."""
        if self.group_size < 2:
            return None
        target = self._probe_cursor % self.group_size
        self._probe_cursor = (target + 1) % self.group_size
        if target == self.node_id:
            target = self._probe_cursor % self.group_size
            self._probe_cursor = (target + 1) % self.group_size
        return target

    def is_suspected(self, peer: int, tick: int) -> bool:
        """Silent for ``miss_threshold`` ticks since last heard (or never
        heard at all once the threshold has elapsed)."""
        if peer == self.node_id:
            return False
        last = self._last_heard.get(peer)
        if last is None:
            return tick >= self.miss_threshold
        return tick - last >= self.miss_threshold

    def suspected(self, tick: int) -> list[int]:
        """All currently-suspected peers, ascending."""
        return [
            peer
            for peer in range(self.group_size)
            if peer != self.node_id and self.is_suspected(peer, tick)
        ]
