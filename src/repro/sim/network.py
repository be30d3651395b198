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
  rejected at the sender (returned as ``Network.REJECTED``) and counted.

Latency is expressed in whole rounds (default: sent in round *t*, delivered
at the start of round *t+1*), matching the synchronous-round abstraction of
gossip protocol analyses.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.sim.rng import RngRegistry

__all__ = [
    "Message",
    "MessageTooLarge",
    "NetworkStats",
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


@dataclass
class NetworkStats:
    """Counters kept by every network model."""

    sent: int = 0
    dropped: int = 0
    rejected_bandwidth: int = 0
    bytes_sent: int = 0
    dropped_cross_partition: int = 0
    dropped_cross_region: int = 0
    injected: int = 0
    per_sender_sent: Counter = field(default_factory=Counter)

    @property
    def delivered_planned(self) -> int:
        """Messages that were not lost (they may still find a dead receiver)."""
        return self.sent - self.dropped


class Network:
    """Base unreliable network.

    Subclasses override :meth:`loss_probability` (and optionally
    :meth:`latency`).  ``plan_delivery`` returns the delivery round, ``None``
    for a lost message, or :data:`Network.REJECTED` when the sender's
    bandwidth cap rejects the send outright.
    """

    #: Sentinel distinct from None (= lost in transit).
    REJECTED = object()

    def __init__(
        self,
        max_message_size: int = 64,
        max_sends_per_round: int | None = None,
        latency_rounds: int = 1,
    ):
        if latency_rounds < 1:
            raise ValueError("latency must be at least one round")
        self.max_message_size = max_message_size
        self.max_sends_per_round = max_sends_per_round
        self.latency_rounds = latency_rounds
        self.stats = NetworkStats()
        self._sends_this_round: Counter = Counter()
        # Per-run caches for the message hot path: the loss stream is
        # consumed in pre-drawn blocks (one numpy call per block instead
        # of one per message — stream-identical, since Generator.random(n)
        # draws the same doubles in the same order as n scalar calls), and
        # the stream lookups themselves are resolved once per registry.
        self._rng_source: RngRegistry | None = None
        self._loss_draws: Any = None
        self._loss_next = 0
        self._latency_stream: Any = None
        # Out-of-band messages placed on the wire by a fault injector
        # (the chaos adversary), pending pickup by the engine.
        self._injected: list[tuple[int, Message]] = []

    #: Messages per pre-drawn block of loss uniforms.
    LOSS_BLOCK = 512

    # -- fault-injection hook -------------------------------------------
    def inject(self, delivery_round: int, message: Message) -> None:
        """Place an out-of-band message on the wire (fault injection).

        Injected messages bypass loss, latency, and bandwidth planning —
        they model an adversary (or a buggy lower layer) writing straight
        onto the medium, not a member spending its send budget.  They are
        counted in ``stats.injected``, never in ``sent``, so protocol
        message-overhead measurements stay unpolluted.  The engine drains
        them each round via :meth:`take_injected` and delivers them at
        ``delivery_round`` ahead of that round's genuine traffic — the
        same relative order on both the object and array engines.
        """
        self.stats.injected += 1
        self._injected.append((delivery_round, message))

    def take_injected(self) -> list[tuple[int, Message]]:
        """Drain pending injected messages (engine interface)."""
        if not self._injected:
            return []
        drained = self._injected
        self._injected = []
        return drained

    # -- model hooks ----------------------------------------------------
    def loss_probability(self, message: Message) -> float:
        """Probability this message is lost in transit."""
        return 0.0

    def latency(self, message: Message, rng) -> int:
        """Delivery delay in rounds (>= 1)."""
        return self.latency_rounds

    @property
    def fixed_latency(self) -> int | None:
        """``latency_rounds`` when delivery delay is deterministic.

        ``None`` for models that override :meth:`latency` (jitter,
        multihop): their delay varies per message.  A fixed latency is
        what lets a whole send block share one delivery round (see
        :meth:`block_latency_rounds`).
        """
        if type(self).latency is Network.latency:
            return self.latency_rounds
        return None

    # -- engine interface -----------------------------------------------
    def begin_round(self, round_number: int) -> None:
        """Reset per-round bandwidth accounting (called by the engine)."""
        if self._sends_this_round:
            self._sends_this_round.clear()

    def _bind_rngs(self, rngs: RngRegistry) -> None:
        self._rng_source = rngs
        self._loss_draws = None
        self._loss_next = 0
        self._latency_stream = rngs.stream("network", "latency")

    def _loss_draw(self, rngs: RngRegistry) -> float:
        """Next uniform from the loss stream, served from a block."""
        draws = self._loss_draws
        if draws is None or self._loss_next >= len(draws):
            draws = self._loss_draws = (
                rngs.stream("network", "loss").random(self.LOSS_BLOCK)
            )
            self._loss_next = 0
        value = draws[self._loss_next]
        self._loss_next += 1
        return value

    def _bulk_loss_draws(self, rngs: RngRegistry, count: int) -> np.ndarray:
        """The next ``count`` uniforms from the loss stream, in order.

        Serves from the same pre-drawn blocks as :meth:`_loss_draw` (and
        refills them the same way), so a bulk consumer and a scalar
        consumer see the identical double sequence — the array engine's
        loss decisions are bit-identical to per-message planning.
        """
        out = np.empty(count, dtype=np.float64)
        filled = 0
        while filled < count:
            draws = self._loss_draws
            if draws is None or self._loss_next >= len(draws):
                draws = self._loss_draws = (
                    rngs.stream("network", "loss").random(self.LOSS_BLOCK)
                )
                self._loss_next = 0
            take = min(count - filled, len(draws) - self._loss_next)
            out[filled:filled + take] = (
                draws[self._loss_next:self._loss_next + take]
            )
            self._loss_next += take
            filled += take
        return out

    # -- block-planning hooks (the array-stepped engine's fast path) ----
    def block_loss_probabilities(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float | None:
        """Loss probability per (src, dest) pair, vectorized.

        ``None`` means this model cannot plan in blocks (a subclass
        overrode :meth:`loss_probability` without providing a block
        form); the caller must fall back to per-message
        :meth:`plan_delivery`.  The guard checks the *actual* class's
        ``loss_probability`` so a subclass can never be silently planned
        with its parent's loss model.
        """
        if type(self).loss_probability is not Network.loss_probability:
            return None
        return 0.0

    def block_latency_rounds(self) -> int | None:
        """This round's uniform delivery delay, or ``None`` if per-message.

        Models whose latency varies per *message* (jitter, multihop)
        return ``None`` and are excluded from block planning; models
        whose latency is merely per-*round* (chaos latency bursts)
        override this to return the current value.
        """
        return self.fixed_latency

    def plan_delivery_block(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        sizes: np.ndarray,
        slots: np.ndarray,
        sent_round: int,
        rngs: RngRegistry,
    ):
        """Vectorized :meth:`plan_delivery` over one round's send block.

        ``src``/``dest``/``sizes`` describe the messages in *send order*
        (the order the object-stepped engine would have submitted them);
        ``slots[i]`` is message ``i``'s index among its sender's sends
        this round (for the bandwidth cap).  Returns
        ``(delivered_mask, delivery_round)`` — ``delivered_mask[i]``
        True when message ``i`` survives both the cap and loss — or
        ``None`` when this model cannot plan in blocks.  Stats, loss
        draws and raised errors match the scalar path exactly.
        """
        probabilities = self.block_loss_probabilities(src, dest)
        latency = self.block_latency_rounds()
        if probabilities is None or latency is None:
            return None
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
        else:
            accepted = np.ones(len(src), dtype=bool)
        count = int(accepted.sum())
        if count == 0:
            return accepted, sent_round + latency
        a_src = src[accepted]
        stats.sent += count
        stats.bytes_sent += int(sizes[accepted].sum())
        senders, sent_counts = np.unique(a_src, return_counts=True)
        per_sender = stats.per_sender_sent
        for sender, sends in zip(senders.tolist(), sent_counts.tolist()):
            per_sender[sender] += sends
        if rngs is not self._rng_source:
            self._bind_rngs(rngs)
        probabilities = np.broadcast_to(
            np.asarray(probabilities, dtype=np.float64), (len(src),)
        )[accepted]
        lost = np.zeros(count, dtype=bool)
        drawing = probabilities > 0.0
        draw_count = int(drawing.sum())
        if draw_count:
            draws = self._bulk_loss_draws(rngs, draw_count)
            lost[drawing] = draws < probabilities[drawing]
        dropped = int(lost.sum())
        if dropped:
            stats.dropped += dropped
            self._note_block_losses(a_src, dest[accepted], lost)
        delivered = accepted.copy()
        delivered[accepted] = ~lost
        return delivered, sent_round + latency

    def _note_block_losses(
        self, src: np.ndarray, dest: np.ndarray, lost: np.ndarray
    ) -> None:
        """Hook for subclass loss accounting (cross-partition counters)."""

    def plan_delivery(self, message: Message, rngs: RngRegistry):
        """Decide the fate of ``message``; see class docstring."""
        if message.size > self.max_message_size:
            raise MessageTooLarge(
                f"message of size {message.size} exceeds bound "
                f"{self.max_message_size} (src={message.src})"
            )
        if rngs is not self._rng_source:
            self._bind_rngs(rngs)
        if self.max_sends_per_round is not None:
            if self._sends_this_round[message.src] >= self.max_sends_per_round:
                self.stats.rejected_bandwidth += 1
                return Network.REJECTED
            self._sends_this_round[message.src] += 1
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += message.size
        stats.per_sender_sent[message.src] += 1
        probability = self.loss_probability(message)
        if probability > 0.0 and self._loss_draw(rngs) < probability:
            stats.dropped += 1
            return None
        return message.sent_round + self.latency(message, self._latency_stream)


class LossyNetwork(Network):
    """Independent unicast loss with probability ``ucastl`` (paper default)."""

    def __init__(self, ucastl: float = 0.25, **kwargs):
        if not 0.0 <= ucastl <= 1.0:
            raise ValueError(f"ucastl must be a probability, got {ucastl}")
        super().__init__(**kwargs)
        self.ucastl = ucastl

    def loss_probability(self, message: Message) -> float:
        return self.ucastl

    def block_loss_probabilities(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float | None:
        if type(self).loss_probability is not LossyNetwork.loss_probability:
            return None
        return self.ucastl


class JitterNetwork(LossyNetwork):
    """Lossy network with stochastic per-message latency.

    Latency is ``1 + Geometric(p = 1/mean_extra_latency)`` rounds
    (memoryless queueing delay on top of the one-round base), capped at
    ``max_latency``.  Models asynchronous networks where delivery order
    is not send order — the setting the paper's asynchronous model
    (Section 2) actually allows, beyond the fixed-latency simplification
    of its simulations.
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

    def latency(self, message: Message, rng) -> int:
        if self.mean_extra_latency == 0:
            return 1
        p = 1.0 / (1.0 + self.mean_extra_latency)
        extra = int(rng.geometric(p)) - 1  # >= 0
        return min(self.max_latency, 1 + extra)


class PartitionedNetwork(LossyNetwork):
    """Two-sided soft partition (Figure 9), optionally healing mid-run.

    ``partition_of`` maps a node id to its partition label.  Messages whose
    endpoints share a label are dropped with ``ucastl``; messages crossing
    the partition are dropped with ``partl`` (>= ucastl in the paper's
    experiment).

    ``heal_at`` heals the partition at the start of round ``heal_at``'s
    send window: messages submitted from that round on are all dropped
    with the background ``ucastl``, whatever their endpoints.  ``None``
    (the default, the paper's Figure 9 setting) keeps the partition up
    for the whole run.  Drops caused by the partition are counted in
    ``stats.dropped_cross_partition``.
    """

    def __init__(
        self,
        partition_of: Callable[[int], int] | Mapping[int, int],
        partl: float = 0.5,
        ucastl: float = 0.25,
        heal_at: int | None = None,
        partition_of_block: Callable[[np.ndarray], np.ndarray] | None = None,
        **kwargs,
    ):
        if not 0.0 <= partl <= 1.0:
            raise ValueError(f"partl must be a probability, got {partl}")
        if heal_at is not None and heal_at < 0:
            raise ValueError(f"heal_at must be a round number >= 0, "
                             f"got {heal_at}")
        super().__init__(ucastl=ucastl, **kwargs)
        self.partl = partl
        self.heal_at = heal_at
        self._healed = False
        #: Vectorized ``partition_of`` (node-id array -> label array).
        #: Optional because ``partition_of`` is an arbitrary callable the
        #: model cannot vectorize itself; without it the network simply
        #: opts out of block planning (``block_loss_probabilities`` is
        #: None) and the engine falls back to per-message planning —
        #: same results either way.
        self._partition_of_block = partition_of_block
        if callable(partition_of):
            self._partition_of = partition_of
        else:
            mapping = dict(partition_of)
            self._partition_of = mapping.__getitem__

    @property
    def healed(self) -> bool:
        """Whether the partition has healed (always False without heal_at)."""
        return self._healed

    def begin_round(self, round_number: int) -> None:
        super().begin_round(round_number)
        if self.heal_at is not None and round_number >= self.heal_at:
            self._healed = True

    def crosses_partition(self, message: Message) -> bool:
        if self._healed:
            return False
        return self._partition_of(message.src) != self._partition_of(message.dest)

    def loss_probability(self, message: Message) -> float:
        if self.crosses_partition(message):
            return self.partl
        return self.ucastl

    def _block_crossings(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | None:
        if (
            self._partition_of_block is None
            or type(self).crosses_partition
            is not PartitionedNetwork.crosses_partition
        ):
            return None
        if self._healed:
            return np.zeros(len(src), dtype=bool)
        labels = self._partition_of_block
        return labels(src) != labels(dest)

    def block_loss_probabilities(
        self, src: np.ndarray, dest: np.ndarray
    ) -> np.ndarray | float | None:
        if (
            type(self).loss_probability
            is not PartitionedNetwork.loss_probability
        ):
            return None
        crossings = self._block_crossings(src, dest)
        if crossings is None:
            return None
        return np.where(crossings, self.partl, self.ucastl)

    def _note_block_losses(
        self, src: np.ndarray, dest: np.ndarray, lost: np.ndarray
    ) -> None:
        crossings = self._block_crossings(src, dest)
        if crossings is not None:
            self.stats.dropped_cross_partition += int(
                (lost & crossings).sum()
            )

    def plan_delivery(self, message: Message, rngs: RngRegistry):
        crossing = self.crosses_partition(message)
        before = self.stats.dropped
        outcome = super().plan_delivery(message, rngs)
        if crossing and outcome is None and self.stats.dropped == before + 1:
            self.stats.dropped_cross_partition += 1
        return outcome


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

    def _route_length(self, message: Message) -> int | None:
        if message.src == message.dest:
            return 0
        return self.hops(message.src, message.dest)

    def loss_probability(self, message: Message) -> float:
        route = self._route_length(message)
        if route is None:
            return 1.0
        return 1.0 - (1.0 - self.hop_loss) ** route

    def latency(self, message: Message, rng) -> int:
        route = self._route_length(message)
        return max(1, route if route is not None else 1)
