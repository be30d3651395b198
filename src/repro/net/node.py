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

Metrics: given a registry, a node publishes its ledger (:data:`_LEDGER`)
through a collector that runs on every read, and counts its process's
phase events in a counters-only :class:`~repro.obs.phase.PhaseTrace`.
All nodes of a group share one ``repro_phase_events_total`` family, so
the collector adds the events counted since its last read.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.aggregates import get_aggregate
from repro.core.gridbox import shared_dense_assignment
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
)
from repro.core.protocol import draw_votes, vote_block
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
    _gossip_body,
    _gossip_frame,
)
from repro.net.liveness import RTT_BUCKETS, LivenessView
from repro.obs.metrics import MetricsRegistry, feed_phase_counts
from repro.obs.phase import PhaseTrace
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

#: The two label sets of the ``repro_net_*`` families.
_PER_NODE = ("node",)
_PER_TYPE = ("node", "type")


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
    fanout_m: int = GossipParams.fanout_m
    rounds_factor_c: float = GossipParams.rounds_factor_c
    hash_salt: int = 0
    vote_low: float = 0.0
    vote_high: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < self.group_size:
            raise ValueError(
                f"node id {self.node_id} outside the group "
                f"0..{self.group_size - 1}"
            )


def _per_kind() -> dict[str, int]:
    return dict.fromkeys(_FRAME_KINDS, 0)


@dataclass
class NodeStats:
    """Per-node datagram accounting (the net analogue of EngineStats).

    With :class:`~repro.net.liveness.LivenessView`'s ping/pong/RTT
    tallies this is the node's only ledger: the metrics registry, the
    ``net`` run record and ``repro top`` all read it through
    :data:`_LEDGER`.
    """

    datagrams_received: int = 0
    #: Inbound frames rejected: not decodable, or gossip in which the
    #: process refused an entry its hierarchy does not place under its
    #: key (structural admission; its other entries are still admitted).
    frames_rejected: int = 0
    #: Outbound frames over :data:`MAX_DATAGRAM_BYTES`, dropped unsent.
    frames_oversize: int = 0
    gossip_dropped_unstarted: int = 0
    #: Gossip sends dropped because the destination had no address
    #: (the net analogue of the engine's send-rejection counter).
    sends_rejected: int = 0
    #: Datagrams and bytes handed to the transport, and decoded frames
    #: received, by frame kind.
    tx: dict[str, int] = field(default_factory=_per_kind)
    tx_bytes: dict[str, int] = field(default_factory=_per_kind)
    rx: dict[str, int] = field(default_factory=_per_kind)

    @property
    def messages_sent(self) -> int:
        return sum(self.tx.values())

    @property
    def bytes_sent(self) -> int:
        return sum(self.tx_bytes.values())


def make_votes(config: NodeConfig) -> dict[int, float]:
    """The group's vote map under this seed (the runner's own draw)."""
    return draw_votes(
        RngRegistry(config.seed), config.group_size,
        config.vote_low, config.vote_high,
    )


class NetContext:
    """The :class:`repro.core.runtime.Context` of one live node.

    Owned by a single process (unlike the simulator's shared, rebound
    context): ``round`` is the node's tick count and ``send`` frames the
    payload onto the wire.
    """

    def __init__(self, node: "NetNode"):
        # The node holds its context, so the context holds it weakly: a
        # dropped node is freed by reference counting.
        self._node = weakref.proxy(node)
        self._node_id = node.config.node_id
        self._rngs = RngRegistry(node.config.seed)

    @property
    def round(self) -> int:
        """Ticks since this node's protocol started (starts at 0)."""
        return self._node.tick_count

    def rng_for(self, *names: str | int):
        """The simulator-identical per-process named stream."""
        return self._rngs.stream("process", self._node_id, *names)

    def send(self, dest: int, payload: Any, size: int = 1) -> None:
        """Frame and transmit one gossip payload, fire-and-forget.

        This runtime imposes no local bandwidth cap, and UDP gives no
        delivery signal — loss happens on the wire, as the contract
        allows.  ``size`` (the protocol's abstract byte count) is
        ignored; real datagram sizes are accounted in
        :class:`NodeStats`.
        """
        self._node._send_gossip(dest, payload)

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
        registry: MetricsRegistry | None = None,
    ):
        self.config = config
        self.transport_send = transport_send
        self.seeds = tuple(seeds)
        self.stats = NodeStats()
        #: The process's phase events, counted for the registry.
        self.phase_trace = (
            PhaseTrace(store_events=False) if registry is not None else None
        )
        self.book = AddressBook(config.group_size)
        self.liveness = LivenessView(config.node_id, config.group_size)
        self.started = False
        self.tick_count = 0
        #: The last gossip payload framed: ``(payload, its body, the
        #: tick of the frame, the frame)``.  The M gossipees of a tick
        #: get the one frame; a batch re-sent on a later tick (``known``
        #: unchanged) keeps its body and is only re-prefixed.
        self._framed: tuple[Any, bytes, int, bytes] = (None, b"", -1, b"")
        # Probes and their answers never change: framed here, once.
        self._ping = encode(Ping(src=config.node_id))
        self._pong = encode(Pong(src=config.node_id))
        # This member's entry of the group's vote block (``make_votes``
        # is the whole block as a map; a node needs one float of it).
        votes = vote_block(
            RngRegistry(config.seed), config.group_size,
            config.vote_low, config.vote_high,
        )
        assignment = shared_dense_assignment(
            config.group_size, config.k, config.group_size,
            FairHash(salt=config.hash_salt),
        )
        self.process = HierarchicalGossipProcess(
            node_id=config.node_id,
            vote=float(votes[config.node_id]),
            function=get_aggregate(config.aggregate),
            assignment=assignment,
            view=assignment.member_ids,
            params=GossipParams.from_config(config),
            phase_sink=self.phase_trace,
        )
        self.ctx = NetContext(self)
        if registry is not None:
            self._publish_ledger(registry)

    def _publish_ledger(self, registry: MetricsRegistry) -> None:
        """Register this node's series (zero-valued from tick 0) and a
        collector that copies the ledger into them on every read and
        adds the phase events counted since the last one."""
        node = str(self.config.node_id)
        series: list[tuple[Callable, Any]] = []
        for name, help, kind, labels, read, __ in _LEDGER:
            family = getattr(registry, kind)(name, help, labels)
            child: Any = family.labels(node) if labels is _PER_NODE else {
                frame: family.labels(node, frame) for frame in _FRAME_KINDS
            }
            series.append((read, child))
        rtt = registry.histogram(
            "repro_net_ping_rtt_ticks",
            "Ping-to-pong round trip in ticks",
            _PER_NODE,
            buckets=RTT_BUCKETS,
        ).labels(node)
        # The group's nodes share one phase family: each read adds what
        # this node's trace counted since the last one, and never sets.
        trace = self.phase_trace
        assert trace is not None
        fed: Counter[str] = Counter()

        def collect() -> None:
            for read, child in series:
                value = read(self)
                if isinstance(value, dict):
                    for frame, count in value.items():
                        child[frame].value = count
                else:
                    child.value = value
            liveness = self.liveness
            rtt.counts[:] = liveness.rtt_counts
            rtt.sum = liveness.rtt_total
            rtt.count = liveness.rtt_count
            arrived = trace.counts - fed
            feed_phase_counts(registry, arrived)
            fed.update(arrived)

        registry.add_collector(collect)

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
        budget = self.process.params.round_budget(
            self.config.group_size, self.process.num_phases
        )
        return 2 * budget + 50

    # -- outbound ------------------------------------------------------

    def _transmit(
        self, data: bytes, address: Address, kind: str = "gossip"
    ) -> None:
        if len(data) > MAX_DATAGRAM_BYTES:
            # One frame is one datagram; a transport would refuse or
            # truncate this one, so it is loss — counted, never silent.
            self.stats.frames_oversize += 1
            return
        self.stats.tx[kind] += 1
        self.stats.tx_bytes[kind] += len(data)
        self.transport_send(data, address)

    def _send_gossip(self, dest: int, payload: Any) -> None:
        address = self.book.address_of(dest)
        if address is None:
            # Complete books make this unreachable; before completeness
            # the process has not started, so nothing gossips.  Treat a
            # race (dest rebooted, book refresh in flight) as wire loss.
            self.stats.sends_rejected += 1
            return
        framed, body, tick, frame = self._framed
        if framed is not payload:
            body = _gossip_body(payload)
            tick = -1
        if tick != self.tick_count:
            tick = self.tick_count
            frame = _gossip_frame(self.config.node_id, tick, body)
            self._framed = (payload, body, tick, frame)
        self._transmit(frame, address, "gossip")

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
            self._transmit(join, seed, "join")

    def _send_probe(self) -> None:
        target = self.liveness.next_probe_target()
        if target is None or target == self.config.node_id:
            return
        address = self.book.address_of(target)
        if address is not None:
            self.liveness.record_ping_sent(target, self.tick_count)
            self._transmit(self._ping, address, "ping")

    # -- inbound -------------------------------------------------------

    def datagram_received(self, data: bytes, address: Address) -> None:
        """Decode and route one inbound datagram; never raises on
        hostile input (malformed frames are counted and dropped)."""
        stats = self.stats
        stats.datagrams_received += 1
        try:
            message = decode(data)
        except CodecError:
            stats.frames_rejected += 1
            return
        if isinstance(message, Join):
            stats.rx["join"] += 1
            if 0 <= message.node_id < self.config.group_size:
                self.book.record(
                    message.node_id, (message.host, message.port)
                )
                self.liveness.record_heard(message.node_id, self.tick_count)
                # Answer with the current book — possibly partial; the
                # joiner keeps re-joining until its copy is complete.
                for frame in _welcome_frames(self.book.as_dict()):
                    self._transmit(frame, address, "welcome")
        elif isinstance(message, Welcome):
            stats.rx["welcome"] += 1
            self.book.merge(message.book)
        elif isinstance(message, Ping):
            stats.rx["ping"] += 1
            self.liveness.record_heard(message.src, self.tick_count)
            peer = self.book.address_of(message.src)
            if peer is not None:
                self._transmit(self._pong, peer, "pong")
        elif isinstance(message, Pong):
            stats.rx["pong"] += 1
            self.liveness.record_pong(message.src, self.tick_count)
        elif isinstance(message, Gossip):
            stats.rx["gossip"] += 1
            self.liveness.record_heard(message.src, self.tick_count)
            if not self.started:
                stats.gossip_dropped_unstarted += 1
                return
            process = self.process
            if not process.alive:
                return
            refused = process.refused
            process.on_message(
                self.ctx,
                Message(
                    src=message.src,
                    dest=self.config.node_id,
                    payload=message.payload,
                    sent_round=message.sent_round,
                ),
            )
            if process.refused != refused:
                stats.frames_rejected += 1

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
        return self.process.terminated


def _welcome_frames(book: dict[int, Address]) -> list[bytes]:
    """``book`` as Welcome frames of one datagram each: a book too big
    for one is halved by id until every part fits (the joiner merges
    them in any order)."""
    frame = encode(Welcome(book=book))
    if len(frame) <= MAX_DATAGRAM_BYTES or len(book) == 1:
        return [frame]
    ids = sorted(book)
    lower = {node_id: book[node_id] for node_id in ids[:len(ids) // 2]}
    upper = {node_id: book[node_id] for node_id in ids[len(ids) // 2:]}
    return _welcome_frames(lower) + _welcome_frames(upper)


#: The ledger, one row per scalar ``repro_net_*`` family: ``(family,
#: help, registry kind, label names, read(node), key in the run
#: record's ``net`` object or None)``.  A ``_PER_TYPE`` row reads a
#: dict: one series per frame kind.  The RTT histogram is the one
#: family that is not a scalar; :meth:`NetNode._publish_ledger` copies
#: it.
_LEDGER: tuple[
    tuple[str, str, str, tuple[str, ...], Callable[[NetNode], Any],
          str | None], ...
] = (
    ("repro_net_tx_total", "Datagrams transmitted by frame type",
     "counter", _PER_TYPE, lambda n: n.stats.tx, None),
    ("repro_net_tx_bytes_total", "Bytes transmitted by frame type",
     "counter", _PER_TYPE, lambda n: n.stats.tx_bytes, None),
    ("repro_net_rx_total", "Datagrams received by frame type",
     "counter", _PER_TYPE, lambda n: n.stats.rx, None),
    ("repro_net_rx_rejected_total",
     "Inbound frames rejected (codec or structural admission)",
     "counter", _PER_NODE, lambda n: n.stats.frames_rejected,
     "frames_rejected"),
    ("repro_net_tx_oversize_total",
     "Outbound frames over the datagram limit, dropped unsent",
     "counter", _PER_NODE, lambda n: n.stats.frames_oversize,
     "frames_oversize"),
    ("repro_net_gossip_dropped_unstarted_total",
     "Gossip dropped before the process started",
     "counter", _PER_NODE, lambda n: n.stats.gossip_dropped_unstarted,
     "gossip_dropped_unstarted"),
    ("repro_net_sends_rejected_total",
     "Gossip sends dropped for want of an address",
     "counter", _PER_NODE, lambda n: n.stats.sends_rejected, "sends_rejected"),
    ("repro_net_joins_sent_total", "Bootstrap joins sent",
     "counter", _PER_NODE, lambda n: n.stats.tx["join"], "joins_sent"),
    ("repro_net_pings_sent_total", "Liveness pings sent",
     "counter", _PER_NODE, lambda n: n.liveness.pings_sent, "pings_sent"),
    ("repro_net_pongs_received_total", "Liveness pongs received",
     "counter", _PER_NODE, lambda n: n.liveness.pongs_received,
     "pongs_received"),
    ("repro_net_round", "This node's tick count (its protocol round clock)",
     "gauge", _PER_NODE, lambda n: n.tick_count, None),
    ("repro_net_suspected_peers",
     "Peers currently suspected by the liveness view",
     "gauge", _PER_NODE, lambda n: len(n.liveness.suspected(n.tick_count)),
     "suspected_peers"),
    ("repro_net_started", "1 once the protocol process has started",
     "gauge", _PER_NODE, lambda n: int(n.started), None),
    ("repro_net_terminated", "1 once the process finalized its estimate",
     "gauge", _PER_NODE, lambda n: int(n.process.terminated), None),
)


def net_stats_record(nodes) -> dict:
    """Group-level liveness/codec accounting, JSON-ready.

    This is the ``net`` object of a ``repro-run/1`` record for the live
    runtime (``repro serve --json`` and loopback reports); simulator
    runs carry ``"net": null`` so both substrates emit the same keys.
    """
    nodes = list(nodes)
    record = {
        "datagrams_received": sum(
            n.stats.datagrams_received for n in nodes
        ),
    }
    for __, __, __, __, read, key in _LEDGER:
        if key is not None:
            record[key] = sum(read(n) for n in nodes)
    rtt_count = sum(n.liveness.rtt_count for n in nodes)
    rtt_total = sum(n.liveness.rtt_total for n in nodes)
    record["mean_rtt_ticks"] = rtt_total / rtt_count if rtt_count else None
    return record
