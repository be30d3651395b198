"""One live group member: :class:`NetNode` hosting a protocol process.

The node is **transport-agnostic**: it never touches a socket or an
event loop.  It is given a ``transport_send(data, address)`` callable
and exposes two plain entry points —

* :meth:`NetNode.datagram_received` for every inbound datagram, and
* :meth:`NetNode.tick` for every round tick —

so the same class runs under asyncio UDP (:mod:`repro.net.serve`), the
deterministic in-memory router (:mod:`repro.net.loopback`), and direct
unit tests, with identical behaviour.

Lifecycle: the node joins via the seeds every tick
(:mod:`repro.net.bootstrap`) until its address book is complete, then
starts its protocol process (``on_start`` and the first ``on_round`` on
the same tick, mirroring the simulator's round 0) and gossips one round
per tick thereafter.  Gossip arriving before the process has started is
dropped and counted — the simulator's round-0 semantics guarantee no
peer can usefully be ahead of an unstarted member anyway, because its
own vote is not composed yet.

Determinism contract: :class:`NetContext` derives the process's named
random streams from ``("process", node_id, *names)`` under the run
seed, exactly like the simulator's context, and votes come from the
same block draw as the experiment runner — so a net node's gossip
decisions under lossless transport are bit-identical to the simulated
member's (the cross-runtime golden suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.aggregates import get_aggregate
from repro.core.gridbox import shared_dense_assignment
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
)
from repro.core.messages import GossipBatch, GossipValue
from repro.core.observe import PhaseSink
from repro.net.bootstrap import Address, AddressBook
from repro.net.codec import (
    MAX_DATAGRAM_BYTES,
    CodecError,
    Gossip,
    Join,
    Ping,
    Pong,
    Welcome,
    decode,
    encode,
)
from repro.net.liveness import LivenessView
from repro.obs.metrics import (
    MetricsPhaseSink,
    MetricsRegistry,
    TeePhaseSink,
)
from repro.sim.network import Message
from repro.sim.rng import RngRegistry

__all__ = [
    "NetContext",
    "NetNode",
    "NodeConfig",
    "NodeStats",
    "make_votes",
    "net_stats_record",
]

#: Wire frame kinds, the ``type`` label of the tx/rx counters.
_FRAME_KINDS = ("gossip", "join", "welcome", "ping", "pong")

#: Ping→pong round trips in ticks; loopback is 2 (one tick each way).
_RTT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class NodeConfig:
    """Everything a member must agree on with its group.

    Mirrors the protocol-relevant subset of
    :class:`repro.experiments.params.RunConfig` (same defaults), so a
    simulator run and a live group built from the same values compute
    the same aggregate from the same votes.
    """

    node_id: int
    group_size: int
    k: int = 4
    seed: int = 0
    aggregate: str = "average"
    fanout_m: int = 2
    rounds_factor_c: float = 1.0
    hash_salt: int = 0
    vote_low: float = 0.0
    vote_high: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < self.group_size:
            raise ValueError(
                f"node id {self.node_id} outside the group "
                f"0..{self.group_size - 1}"
            )


@dataclass
class NodeStats:
    """Per-node datagram accounting (the net analogue of EngineStats)."""

    datagrams_received: int = 0
    #: Inbound frames dropped: not decodable, or gossip whose coverage
    #: names a rank outside the group.
    frames_rejected: int = 0
    #: Outbound frames over :data:`MAX_DATAGRAM_BYTES`, dropped unsent.
    frames_oversize: int = 0
    gossip_dropped_unstarted: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    joins_sent: int = 0
    #: Gossip sends dropped because the destination had no address
    #: (the net analogue of the engine's send-rejection counter).
    sends_rejected: int = 0


class _NodeMetrics:
    """Pre-resolved registry children for one node's hot paths.

    Child handles are looked up once at construction so the per-datagram
    cost with a registry attached is a dict lookup plus an ``inc`` —
    and exactly zero when no registry is installed (the node holds
    ``None`` instead of this object).
    """

    def __init__(self, registry: MetricsRegistry, node_id: int):
        self.registry = registry
        node = str(node_id)
        tx = registry.counter(
            "repro_net_tx_total",
            "Datagrams transmitted by frame type",
            ("node", "type"),
        )
        tx_bytes = registry.counter(
            "repro_net_tx_bytes_total",
            "Bytes transmitted by frame type",
            ("node", "type"),
        )
        rx = registry.counter(
            "repro_net_rx_total",
            "Datagrams received by frame type",
            ("node", "type"),
        )
        self._tx = {k: tx.labels(node, k) for k in _FRAME_KINDS}
        self._tx_bytes = {
            k: tx_bytes.labels(node, k) for k in _FRAME_KINDS
        }
        self._rx = {k: rx.labels(node, k) for k in _FRAME_KINDS}
        self.rx_rejected = registry.counter(
            "repro_net_rx_rejected_total",
            "Inbound frames rejected (codec or out-of-group coverage)",
            ("node",),
        ).labels(node)
        self.tx_oversize = registry.counter(
            "repro_net_tx_oversize_total",
            "Outbound frames over the datagram limit, dropped unsent",
            ("node",),
        ).labels(node)
        self.gossip_dropped = registry.counter(
            "repro_net_gossip_dropped_unstarted_total",
            "Gossip dropped before the process started",
            ("node",),
        ).labels(node)
        self.sends_rejected = registry.counter(
            "repro_net_sends_rejected_total",
            "Gossip sends dropped for want of an address",
            ("node",),
        ).labels(node)
        self.joins_sent = registry.counter(
            "repro_net_joins_sent_total",
            "Bootstrap joins sent",
            ("node",),
        ).labels(node)
        self.pings_sent = registry.counter(
            "repro_net_pings_sent_total",
            "Liveness pings sent",
            ("node",),
        ).labels(node)
        self.pongs_received = registry.counter(
            "repro_net_pongs_received_total",
            "Liveness pongs received",
            ("node",),
        ).labels(node)
        self.ping_rtt = registry.histogram(
            "repro_net_ping_rtt_ticks",
            "Ping-to-pong round trip in ticks",
            ("node",),
            buckets=_RTT_BUCKETS,
        ).labels(node)
        self.round_gauge = registry.gauge(
            "repro_net_round",
            "This node's tick count (its protocol round clock)",
            ("node",),
        ).labels(node)
        self.suspected = registry.gauge(
            "repro_net_suspected_peers",
            "Peers currently suspected by the liveness view",
            ("node",),
        ).labels(node)
        self.started_gauge = registry.gauge(
            "repro_net_started",
            "1 once the protocol process has started",
            ("node",),
        ).labels(node)
        self.terminated_gauge = registry.gauge(
            "repro_net_terminated",
            "1 once the process finalized its estimate",
            ("node",),
        ).labels(node)

    def tx(self, kind: str, size: int) -> None:
        self._tx[kind].inc()
        self._tx_bytes[kind].inc(size)

    def rx(self, kind: str) -> None:
        self._rx[kind].inc()


def make_votes(config: NodeConfig) -> dict[int, float]:
    """The group's vote map under this seed.

    Must stay draw-for-draw identical to the experiment runner's
    ``_make_votes`` (one ``random(n)`` block on the ``votes`` stream):
    every member derives the full map locally and keeps only its own
    vote, which is what makes the cross-runtime aggregate comparable.
    """
    draws = RngRegistry(config.seed).stream("votes").random(config.group_size)
    span = config.vote_high - config.vote_low
    return dict(enumerate((config.vote_low + span * draws).tolist()))


class NetContext:
    """The :class:`repro.core.runtime.Context` of one live node.

    Owned by a single process (unlike the simulator's shared, rebound
    context): ``round`` is the node's tick count and ``send`` frames the
    payload onto the wire.
    """

    def __init__(self, node: "NetNode"):
        self._node = node
        self._rng_cache: dict[tuple, Any] = {}
        self._rngs = RngRegistry(node.config.seed)

    @property
    def round(self) -> int:
        """Ticks since this node's protocol started (starts at 0)."""
        return self._node.tick_count

    def rng_for(self, *names: str | int):
        """The simulator-identical per-process named stream."""
        generator = self._rng_cache.get(names)
        if generator is None:
            generator = self._rngs.stream(
                "process", self._node.config.node_id, *names
            )
            self._rng_cache[names] = generator
        return generator

    def send(self, dest: int, payload: Any, size: int = 1) -> bool:
        """Frame and transmit one gossip payload.

        Always returns True: this runtime imposes no local bandwidth
        cap, and UDP gives no delivery signal — loss happens on the
        wire, as the contract allows.  ``size`` (the protocol's
        abstract byte count) is ignored; real datagram sizes are
        accounted in :class:`NodeStats`.
        """
        self._node._send_gossip(dest, payload)
        return True

    def is_alive(self, node_id: int) -> bool:
        """Best-effort liveness from the ping view (REP010: metrics and
        experiments only — protocol code must never call this, and on a
        real network the answer is necessarily a guess)."""
        node = self._node
        return not node.liveness.is_suspected(node_id, node.tick_count)

    def terminate(self) -> None:
        """Mark the hosted process as finished with its protocol."""
        process = self._node.process
        if not process.terminated:
            process.terminated = True


class NetNode:
    """One group member: bootstrap, liveness, and a protocol process."""

    def __init__(
        self,
        config: NodeConfig,
        transport_send: Callable[[bytes, Address], None],
        seeds: tuple[Address, ...] = (),
        phase_sink: PhaseSink | None = None,
        miss_threshold: int = 8,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config
        self.transport_send = transport_send
        self.seeds = tuple(seeds)
        self.stats = NodeStats()
        self.metrics = (
            _NodeMetrics(registry, config.node_id)
            if registry is not None else None
        )
        if registry is not None:
            # Phase events stream into the registry alongside whatever
            # sink the caller installed (TeePhaseSink drops Nones).
            phase_sink = TeePhaseSink(
                phase_sink, MetricsPhaseSink(registry)
            )
        self.book = AddressBook(config.group_size)
        self.liveness = LivenessView(
            config.node_id, config.group_size, miss_threshold=miss_threshold
        )
        self.started = False
        self.tick_count = 0
        votes = make_votes(config)
        assignment = shared_dense_assignment(
            config.group_size, config.k, config.group_size,
            FairHash(salt=config.hash_salt),
        )
        self.process = HierarchicalGossipProcess(
            node_id=config.node_id,
            vote=votes[config.node_id],
            function=get_aggregate(config.aggregate),
            assignment=assignment,
            view=tuple(votes),
            params=GossipParams(
                fanout_m=config.fanout_m,
                rounds_factor_c=config.rounds_factor_c,
            ),
            phase_sink=phase_sink,
        )
        self.ctx = NetContext(self)

    # -- identity ------------------------------------------------------

    def register_self(self, address: Address) -> None:
        """Record this node's own bound address in its book."""
        self.book.record(self.config.node_id, address)

    @property
    def terminated(self) -> bool:
        """The hosted process finalized its global-aggregate estimate."""
        return self.process.terminated

    @property
    def max_ticks(self) -> int:
        """The simulator's round horizon for this configuration — a live
        node still un-converged past this many ticks will never be."""
        rpp = self.process.params.resolve_rounds(self.config.group_size)
        return 2 * rpp * self.process.num_phases + 50

    # -- outbound ------------------------------------------------------

    def _transmit(
        self, data: bytes, address: Address, kind: str = "gossip"
    ) -> None:
        if len(data) > MAX_DATAGRAM_BYTES:
            # One frame is one datagram; a transport would refuse or
            # truncate this one, so it is loss — counted, never silent.
            self.stats.frames_oversize += 1
            if self.metrics is not None:
                self.metrics.tx_oversize.inc()
            return
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(data)
        if self.metrics is not None:
            self.metrics.tx(kind, len(data))
        self.transport_send(data, address)

    def _send_gossip(self, dest: int, payload: Any) -> None:
        address = self.book.address_of(dest)
        if address is None:
            # Complete books make this unreachable; before completeness
            # the process has not started, so nothing gossips.  Treat a
            # race (dest rebooted, book refresh in flight) as wire loss.
            self.stats.sends_rejected += 1
            if self.metrics is not None:
                self.metrics.sends_rejected.inc()
            return
        self._transmit(
            encode(
                Gossip(
                    src=self.config.node_id,
                    sent_round=self.tick_count,
                    payload=payload,
                )
            ),
            address,
            "gossip",
        )

    def _send_joins(self) -> None:
        own = self.book.address_of(self.config.node_id)
        if own is None:
            raise RuntimeError(
                "register_self() must run before the first tick"
            )
        join = encode(
            Join(node_id=self.config.node_id, host=own[0], port=own[1])
        )
        for seed in self.seeds:
            self.stats.joins_sent += 1
            if self.metrics is not None:
                self.metrics.joins_sent.inc()
            self._transmit(join, seed, "join")

    def _send_probe(self) -> None:
        target = self.liveness.next_probe_target()
        if target is None or target == self.config.node_id:
            return
        address = self.book.address_of(target)
        if address is not None:
            self.liveness.record_ping_sent(target, self.tick_count)
            if self.metrics is not None:
                self.metrics.pings_sent.inc()
            self._transmit(
                encode(Ping(src=self.config.node_id)), address, "ping"
            )

    # -- inbound -------------------------------------------------------

    def _reject_frame(self) -> None:
        self.stats.frames_rejected += 1
        if self.metrics is not None:
            self.metrics.rx_rejected.inc()

    def datagram_received(self, data: bytes, address: Address) -> None:
        """Decode and route one inbound datagram; never raises on
        hostile input (malformed frames are counted and dropped)."""
        self.stats.datagrams_received += 1
        try:
            message = decode(data)
        except CodecError:
            self._reject_frame()
            return
        if isinstance(message, Join):
            if self.metrics is not None:
                self.metrics.rx("join")
            if 0 <= message.node_id < self.config.group_size:
                self.book.record(
                    message.node_id, (message.host, message.port)
                )
                self.liveness.record_heard(message.node_id, self.tick_count)
                # Answer with the current book — possibly partial; the
                # joiner keeps re-joining until its copy is complete.
                self._transmit(
                    encode(Welcome(book=self.book.as_dict())),
                    address,
                    "welcome",
                )
        elif isinstance(message, Welcome):
            if self.metrics is not None:
                self.metrics.rx("welcome")
            self.book.merge(message.book)
        elif isinstance(message, Ping):
            if self.metrics is not None:
                self.metrics.rx("ping")
            self.liveness.record_heard(message.src, self.tick_count)
            peer = self.book.address_of(message.src)
            if peer is not None:
                self._transmit(
                    encode(Pong(src=self.config.node_id)), peer, "pong"
                )
        elif isinstance(message, Pong):
            counted = self.liveness.pongs_received
            rtt = self.liveness.record_pong(message.src, self.tick_count)
            if self.metrics is not None:
                self.metrics.rx("pong")
                # ``record_pong`` alone judges "a pong from a peer":
                # the registry counts exactly what the run record does.
                self.metrics.pongs_received.inc(
                    self.liveness.pongs_received - counted
                )
                if rtt is not None:
                    self.metrics.ping_rtt.observe(rtt)
        elif isinstance(message, Gossip):
            if self.metrics is not None:
                self.metrics.rx("gossip")
            if not _coverage_in_group(message.payload, self.config.group_size):
                self._reject_frame()
                return
            self.liveness.record_heard(message.src, self.tick_count)
            if not self.started:
                self.stats.gossip_dropped_unstarted += 1
                if self.metrics is not None:
                    self.metrics.gossip_dropped.inc()
                return
            if not self.process.alive:
                return
            self.process.on_message(
                self.ctx,
                Message(
                    src=message.src,
                    dest=self.config.node_id,
                    payload=message.payload,
                    sent_round=message.sent_round,
                ),
            )

    # -- the round clock -----------------------------------------------

    def tick(self) -> bool:
        """One round tick; returns True once the process has terminated.

        Before the book completes this is a bootstrap retry; the tick
        the book completes, the process starts and takes its round 0
        (``on_start`` then ``on_round``, the engine's ordering).
        """
        if not self.started:
            if not self.book.complete:
                self._send_joins()
                return False
            self.started = True
            self.process.on_start(self.ctx)
        self._send_probe()
        if not self.process.terminated and self.process.alive:
            self.process.on_round(self.ctx)
        self.tick_count += 1
        if self.metrics is not None:
            self.metrics.round_gauge.set(self.tick_count)
            self.metrics.suspected.set(
                len(self.liveness.suspected(self.tick_count))
            )
            self.metrics.started_gauge.set(1 if self.started else 0)
            self.metrics.terminated_gauge.set(
                1 if self.process.terminated else 0
            )
        return self.process.terminated


def _coverage_in_group(
    payload: GossipValue | GossipBatch, group_size: int
) -> bool:
    """Whether every coverage mask in ``payload`` names ranks below
    ``group_size`` only (a rank past the group is no member's vote)."""
    if isinstance(payload, GossipValue):
        entries: tuple = ((payload.key, payload.state),)
    else:
        entries = payload.entries
    for __, state in entries:
        bounds = state.members.bounds
        if bounds and bounds[-1] >= group_size:
            return False
    return True


def net_stats_record(nodes) -> dict:
    """Group-level liveness/codec accounting, JSON-ready.

    This is the ``net`` object of a ``repro-run/1`` record for the live
    runtime (``repro serve --json`` and loopback reports); simulator
    runs carry ``"net": null`` so both substrates emit the same keys.
    """
    nodes = list(nodes)
    rtt_count = sum(n.liveness.rtt_count for n in nodes)
    rtt_total = sum(n.liveness.rtt_total for n in nodes)
    return {
        "datagrams_received": sum(
            n.stats.datagrams_received for n in nodes
        ),
        "frames_rejected": sum(n.stats.frames_rejected for n in nodes),
        "frames_oversize": sum(n.stats.frames_oversize for n in nodes),
        "joins_sent": sum(n.stats.joins_sent for n in nodes),
        "gossip_dropped_unstarted": sum(
            n.stats.gossip_dropped_unstarted for n in nodes
        ),
        "sends_rejected": sum(n.stats.sends_rejected for n in nodes),
        "pings_sent": sum(n.liveness.pings_sent for n in nodes),
        "pongs_received": sum(
            n.liveness.pongs_received for n in nodes
        ),
        "mean_rtt_ticks": (
            rtt_total / rtt_count if rtt_count else None
        ),
        "suspected_peers": sum(
            len(n.liveness.suspected(n.tick_count)) for n in nodes
        ),
    }
