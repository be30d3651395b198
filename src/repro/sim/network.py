"""Unreliable network models.

The paper's simulations (Section 7) use point-to-point (unicast) messaging
with independent loss probability ``ucastl``; Figure 9 additionally splits
the group into two halves and drops cross-partition messages with a higher
probability ``partl`` (modelling congestion / correlated failures).

All models here also enforce the paper's two scalability constraints
(Section 2):

* **Constant-bounded message size** — a message larger than
  ``max_message_size`` raises :class:`MessageTooLarge` (a protocol bug, not
  a network event).  The Hierarchical Gossiping protocol always sends O(1)
  sized messages; the flat-gossip baseline can be configured with a large
  bound to demonstrate *why* the constraint matters.
* **Per-member bandwidth cap** — each sender may submit at most
  ``max_sends_per_round`` messages per round; excess submissions are
  refused at the sender and counted in
  ``NetworkStats.rejected_bandwidth``.

Latency is expressed in whole rounds (default: sent in round *t*, delivered
at the start of round *t+1*), matching the synchronous-round abstraction of
gossip protocol analyses.

Both engines plan every send through one method,
:meth:`Network.plan_delivery_block`, over a block of messages in send
order: each message's fate (refused, lost, or delivered in some round)
is decided once, and a model states its loss and latency once, over
arrays.  That is all a network does: a fault that changes over time
(a partition that heals, a loss burst) is a round-bus subscriber that
rewrites a model's attributes (:mod:`repro.chaos.campaign`), and
out-of-band traffic enters through ``SimulationEngine.inject``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.sim.rng import RngRegistry

__all__ = [
    "Message",
    "MessageTooLarge",
    "NetworkStats",
    "SenderCounts",
    "Network",
    "LossyNetwork",
    "JitterNetwork",
    "PartitionedNetwork",
    "TopologyNetwork",
]


@dataclass(slots=True)
class Message:
    """A unicast message in flight.  ``size`` is an abstract byte count."""

    src: int
    dest: int
    payload: Any
    size: int = 1
    sent_round: int = 0


class MessageTooLarge(Exception):
    """Raised when a protocol violates the constant-message-size bound."""


class SenderCounts:
    """Messages sent per sender, as columns: ``ids`` (every sender that
    has sent, ascending) and ``counts``.  A block is counted with array
    operations; senders are only ever added."""

    __slots__ = ("ids", "counts")

    def __init__(self, ids=(), counts=()):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)

    def add(self, senders: np.ndarray, sends: np.ndarray) -> None:
        """Count ``sends[i]`` more messages from ``senders[i]`` (unique,
        ascending)."""
        at = np.searchsorted(self.ids, senders)
        known = at < len(self.ids)
        known[known] = self.ids[at[known]] == senders[known]
        if not known.all():
            ids = np.union1d(self.ids, senders)
            counts = np.zeros(len(ids), dtype=np.int64)
            counts[np.searchsorted(ids, self.ids)] = self.counts
            self.ids, self.counts = ids, counts
            at = np.searchsorted(ids, senders)
        self.counts[at] += sends

    def copy(self) -> "SenderCounts":
        return SenderCounts(self.ids.copy(), self.counts.copy())

    def most_since(self, earlier: "SenderCounts") -> int:
        """The most messages one sender sent since ``earlier`` (a copy of
        these counts taken then); 0 when nobody sent."""
        before = np.zeros(len(self.counts), dtype=np.int64)
        before[np.searchsorted(self.ids, earlier.ids)] = earlier.counts
        return int((self.counts - before).max(initial=0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SenderCounts):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids)
                and np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:
        counts = dict(zip(self.ids.tolist(), self.counts.tolist()))
        return f"SenderCounts({counts})"


@dataclass
class NetworkStats:
    """Counters kept by every network model."""

    sent: int = 0
    dropped: int = 0
    rejected_bandwidth: int = 0
    bytes_sent: int = 0
    dropped_cross_partition: int = 0
    per_sender_sent: SenderCounts = field(default_factory=SenderCounts)

    @property
    def delivered_planned(self) -> int:
        """Messages that were not lost (they may still find a dead receiver)."""
        return self.sent - self.dropped


class Network:
    """Base unreliable network: lossless, next-round delivery.

    :meth:`plan_delivery_block` decides every message's fate.  A model
    states its loss and latency once, over arrays, in :meth:`block_loss`
    and :meth:`block_latency`; :meth:`_count_losses` lets it attribute
    drops to a cause (a partition) in its own counters.
    """

    def __init__(
        self,
        max_message_size: int = 64,
        max_sends_per_round: int | None = None,
    ):
        self.max_message_size = max_message_size
        self.max_sends_per_round = max_sends_per_round
        self.stats = NetworkStats()

    # -- model hooks ----------------------------------------------------
    def block_loss(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float:
        """Loss probability of each accepted message ``src[i] -> dest[i]``
        (an array, or one float for the whole block)."""
        return 0.0

    def block_latency(
        self, src: np.ndarray, dest: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | int:
        """Delay in rounds (>= 1) of each message that survived loss (an
        array, or one int for the whole block); ``rng`` is the run's
        ``network/latency`` stream."""
        return 1

    def _count_losses(
        self, src: np.ndarray, dest: np.ndarray, lost: np.ndarray
    ) -> None:
        """Attribute this block's drops (``lost`` over the accepted
        messages) to a cause; the base model has none."""

    # -- engine interface -----------------------------------------------
    def plan_delivery_block(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        sizes: np.ndarray,
        slots: np.ndarray,
        sent_round: int,
        rngs: RngRegistry,
    ) -> tuple[np.ndarray, np.ndarray | int]:
        """Decide the fate of a block of messages, in send order.

        ``src``/``dest``/``sizes`` describe the messages as their
        senders submitted them; ``slots[i]`` is message ``i``'s index
        among its sender's sends in the open bandwidth window.  A
        message at a slot past ``max_sends_per_round`` is refused (and
        counted in ``rejected_bandwidth``); the rest are sent and lost
        with :meth:`block_loss`'s probability, one loss-stream uniform
        per message whose probability is positive.  Returns
        ``(delivered, delivery_round)``: ``delivered[i]`` is True when
        message ``i`` survives both, and ``delivery_round`` is one round
        for the whole block or one per delivered message (in order).
        Planning a sequence as one block or as consecutive sub-blocks
        gives the same outcome, statistics and stream positions.
        """
        oversized = sizes > self.max_message_size
        if oversized.any():
            first = int(np.argmax(oversized))
            raise MessageTooLarge(
                f"message of size {int(sizes[first])} exceeds bound "
                f"{self.max_message_size} (src={int(src[first])})"
            )
        stats = self.stats
        if self.max_sends_per_round is not None:
            accepted = slots < self.max_sends_per_round
            stats.rejected_bandwidth += int((~accepted).sum())
            src, dest = src[accepted], dest[accepted]
            sizes = sizes[accepted]
        else:
            accepted = np.ones(len(src), dtype=bool)
        count = len(src)
        if count == 0:
            return accepted, sent_round + 1
        stats.sent += count
        stats.bytes_sent += int(sizes.sum())
        stats.per_sender_sent.add(*np.unique(src, return_counts=True))
        probabilities = np.broadcast_to(
            np.asarray(self.block_loss(src, dest), dtype=np.float64),
            (count,),
        )
        lost = np.zeros(count, dtype=bool)
        drawing = probabilities > 0.0
        draw_count = int(drawing.sum())
        if draw_count:
            draws = rngs.stream("network", "loss").random(draw_count)
            lost[drawing] = draws < probabilities[drawing]
        delivered = accepted
        if lost.any():
            stats.dropped += int(lost.sum())
            self._count_losses(src, dest, lost)
            kept = ~lost
            src, dest = src[kept], dest[kept]
            delivered = accepted.copy()
            delivered[accepted] = kept
        return delivered, sent_round + self.block_latency(
            src, dest, rngs.stream("network", "latency")
        )

    def plan_delivery(self, message: Message, rngs: RngRegistry):
        """Plan one message as a block of one, at slot 0: its delivery
        round, or ``None`` when it is lost or refused."""
        delivered, rounds = self.plan_delivery_block(
            np.array([message.src]), np.array([message.dest]),
            np.array([message.size]), np.zeros(1, dtype=np.int64),
            message.sent_round, rngs,
        )
        return int(np.max(rounds)) if delivered[0] else None


class LossyNetwork(Network):
    """Independent unicast loss with probability ``ucastl`` (paper default)."""

    def __init__(self, ucastl: float = 0.25, **kwargs):
        if not 0.0 <= ucastl <= 1.0:
            raise ValueError(f"ucastl must be a probability, got {ucastl}")
        super().__init__(**kwargs)
        self.ucastl = ucastl

    def block_loss(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float:
        return self.ucastl


class JitterNetwork(LossyNetwork):
    """Lossy network with stochastic per-message latency.

    Latency is ``1 + Geometric(p = 1/mean_extra_latency)`` rounds
    (memoryless queueing delay on top of the one-round base), capped at
    ``max_latency``.  Models asynchronous networks where delivery order
    is not send order — the setting the paper's asynchronous model
    (Section 2) actually allows, beyond the fixed-latency simplification
    of its simulations.  One geometric draw per delivered message, in
    send order (``Generator.geometric(p, size=n)`` draws what ``n``
    scalar calls would).
    """

    def __init__(
        self,
        ucastl: float = 0.0,
        mean_extra_latency: float = 1.0,
        max_latency: int = 16,
        **kwargs,
    ):
        if mean_extra_latency < 0:
            raise ValueError("mean_extra_latency must be non-negative")
        if max_latency < 1:
            raise ValueError("max_latency must be >= 1")
        super().__init__(ucastl=ucastl, **kwargs)
        self.mean_extra_latency = mean_extra_latency
        self.max_latency = max_latency

    def block_latency(
        self, src: np.ndarray, dest: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | int:
        if self.mean_extra_latency == 0:
            return 1
        p = 1.0 / (1.0 + self.mean_extra_latency)
        extra = rng.geometric(p, size=len(src)) - 1  # >= 0
        return np.minimum(self.max_latency, 1 + extra)


class PartitionedNetwork(LossyNetwork):
    """Two-sided soft partition (Figure 9).

    ``partition`` is ``(labels, partl)``, or ``None`` while the network
    is whole: ``labels`` maps an array of node ids to their partition
    labels (vectorised).  Messages whose endpoints share a label are
    dropped with ``ucastl``; messages crossing the partition are dropped
    with ``partl`` (>= ucastl in the paper's experiment), and those
    drops are counted in ``stats.dropped_cross_partition``.
    ``partition_of`` may also be a mapping from node id to label.  The
    paper's partition stays up for the whole run; a campaign that heals
    one rewrites ``partition`` from the round bus (``ChaosNetwork``,
    whose ``partl`` may also be a matrix of floors by label pair).
    """

    def __init__(
        self,
        partition_of: (
            Callable[[np.ndarray], np.ndarray] | Mapping[int, int] | None
        ) = None,
        partl: float = 0.5,
        ucastl: float = 0.25,
        **kwargs,
    ):
        if not 0.0 <= partl <= 1.0:
            raise ValueError(f"partl must be a probability, got {partl}")
        super().__init__(ucastl=ucastl, **kwargs)
        self.partition: tuple[
            Callable[[np.ndarray], np.ndarray], float | np.ndarray
        ] | None = None
        if isinstance(partition_of, Mapping):
            mapping = dict(partition_of)
            self.partition = (lambda nodes: np.array(
                [mapping[node] for node in nodes.tolist()]
            ), partl)
        elif partition_of is not None:
            self.partition = (partition_of, partl)

    def _crossings(self, src: np.ndarray, dest: np.ndarray):
        """Which messages cross the partition; None while whole."""
        if self.partition is None:
            return None
        labels, __ = self.partition
        return labels(src) != labels(dest)

    def block_loss(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float:
        if self.partition is None:
            return self.ucastl
        labels, partl = self.partition
        return np.where(labels(src) != labels(dest), partl, self.ucastl)

    def _count_losses(
        self, src: np.ndarray, dest: np.ndarray, lost: np.ndarray
    ) -> None:
        crossings = self._crossings(src, dest)
        if crossings is not None:
            self.stats.dropped_cross_partition += int(
                (lost & crossings).sum()
            )


class TopologyNetwork(Network):
    """Multihop ad-hoc network: loss compounds per hop.

    ``hops`` maps an (src, dest) pair to its route length in hops; a message
    over ``h`` hops survives with probability ``(1 - hop_loss) ** h`` and is
    delivered after ``h`` latency rounds (each hop forwards next round).
    Unroutable pairs (``hops`` returns None) are always lost — this models
    disconnected regions of an ad-hoc deployment.
    """

    def __init__(
        self,
        hops: Callable[[int, int], int | None],
        hop_loss: float = 0.05,
        **kwargs,
    ):
        if not 0.0 <= hop_loss <= 1.0:
            raise ValueError(f"hop_loss must be a probability, got {hop_loss}")
        super().__init__(**kwargs)
        self.hops = hops
        self.hop_loss = hop_loss

    def _routes(self, src: np.ndarray, dest: np.ndarray) -> list[int | None]:
        return [
            0 if a == b else self.hops(a, b)
            for a, b in zip(src.tolist(), dest.tolist())
        ]

    def block_loss(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float:
        survive = 1.0 - self.hop_loss
        return np.array([
            1.0 if route is None else 1.0 - survive ** route
            for route in self._routes(src, dest)
        ])

    def block_latency(
        self, src: np.ndarray, dest: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | int:
        return np.array(
            [max(1, route or 1) for route in self._routes(src, dest)],
            dtype=np.int64,
        )
