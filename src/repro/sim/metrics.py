"""Per-round time-series metrics for simulation runs.

The paper's Section 2 constraints are *rates*: constant-bounded message
size and bounded per-member bandwidth per round.  End-of-run totals can't
check those; :class:`RoundMetrics` records the time series — messages,
bytes, live members, sends of the busiest member — so experiments can
assert the per-round load profile (and show, e.g., that a topologically
aware hash keeps early rounds local).

Attach via ``SimulationEngine(..., metrics=RoundMetrics())``; the engine
snapshots at every round boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.network import SenderCounts

__all__ = ["RoundSample", "RoundMetrics"]


@dataclass(frozen=True)
class RoundSample:
    """The deltas and state of one simulation round."""

    round: int
    messages_sent: int
    bytes_sent: int
    messages_dropped: int
    live_members: int
    active_members: int
    max_sends_by_member: int
    #: Sends refused by the per-round bandwidth cap this round (they
    #: never reach the wire, so they are *not* part of messages_sent).
    messages_rejected: int = 0


@dataclass
class RoundMetrics:
    """Collects one :class:`RoundSample` per executed round."""

    samples: list[RoundSample] = field(default_factory=list)
    _last_sent: int = 0
    _last_bytes: int = 0
    _last_dropped: int = 0
    _last_rejected: int = 0
    _last_per_sender: SenderCounts = field(default_factory=SenderCounts)

    def snapshot(self, engine) -> None:
        """Record the round that just executed (engine callback)."""
        stats = engine.network.stats
        per_sender = stats.per_sender_sent
        self.samples.append(RoundSample(
            round=engine.round,
            messages_sent=stats.sent - self._last_sent,
            bytes_sent=stats.bytes_sent - self._last_bytes,
            messages_dropped=stats.dropped - self._last_dropped,
            # The engine maintains these O(1) (previously full per-round
            # membership scans — a large-N hot path when attached).
            live_members=engine.live_count,
            active_members=engine.active_count,
            max_sends_by_member=per_sender.most_since(self._last_per_sender),
            messages_rejected=(
                stats.rejected_bandwidth - self._last_rejected
            ),
        ))
        self._last_sent = stats.sent
        self._last_bytes = stats.bytes_sent
        self._last_dropped = stats.dropped
        self._last_rejected = stats.rejected_bandwidth
        self._last_per_sender = per_sender.copy()

    # -- queries ----------------------------------------------------------
    def peak_member_rate(self) -> int:
        """The busiest member's sends in its busiest round."""
        return max(
            (sample.max_sends_by_member for sample in self.samples),
            default=0,
        )

    def messages_per_round(self) -> list[int]:
        return [sample.messages_sent for sample in self.samples]

    def mean_bytes_per_message(self) -> float:
        sent = sum(sample.messages_sent for sample in self.samples)
        if not sent:
            return 0.0
        return sum(sample.bytes_sent for sample in self.samples) / sent

    def render(self, width: int = 40) -> str:
        """ASCII load profile: one bar of messages per round."""
        rates = self.messages_per_round()
        if not rates:
            return "(no rounds recorded)"
        peak = max(rates) or 1
        lines = ["round  messages (| = live members falling)"]
        for sample in self.samples:
            bar = "#" * round(sample.messages_sent / peak * width)
            lines.append(
                f"{sample.round:>5}  {bar} {sample.messages_sent} "
                f"(live {sample.live_members}, active "
                f"{sample.active_members})"
            )
        return "\n".join(lines)
