"""Declarative fault events — the vocabulary of a chaos campaign.

Each event describes one correlated fault process on a *normalized*
timeline: every time field is a fraction in ``[0, 1]`` of the run's
protocol horizon (the nominal ``rounds_per_phase * num_phases`` round
budget), so the same named campaign scales meaningfully across the
``(N, K, b)`` grid the robustness harness sweeps — "a storm one third of
the way in" hits phase 2 of a 200-member run and phase 4 of an
8192-member run alike.

Events are pure data, and their fields are all a campaign applies:
:mod:`repro.chaos.campaign` resolves each event's times to rounds once,
into a :data:`Timeline` in campaign order, and its interpreters read the
events' own fields from it (a :class:`~repro.sim.failures.FailureModel`
for crash processes, a begin-round controller rewriting a
:class:`~repro.sim.network.Network` for loss / latency / partition
state, a tamper planner for the adversary).  All sampling is drawn from
the run's seeded ``failures`` and ``adversary`` streams, so a campaign
is exactly as deterministic as the two independent fault processes the
paper's own simulations use.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "FaultEvent",
    "CrashStorm",
    "CorrelatedCrash",
    "ChurnWindow",
    "PartitionWindow",
    "LossBurst",
    "LatencyBurst",
    "MessageTampering",
    "SybilJoinStorm",
    "RegionPartition",
]

#: Tamper modes understood by :class:`MessageTampering`.
TAMPER_MODES = ("forge", "duplicate", "replay")


def _check_fraction(name: str, value: float, low: float = 0.0) -> None:
    if not low <= value <= 1.0:
        raise ValueError(f"{name} must be in [{low}, 1], got {value}")


def _check_window(start: float, stop: float) -> None:
    _check_fraction("start", start)
    _check_fraction("stop", stop)
    if stop <= start:
        raise ValueError(f"window must satisfy start < stop, "
                         f"got [{start}, {stop})")


class FaultEvent:
    """Marker base class for campaign timeline events."""

    __slots__ = ()


#: A compiled campaign's events in campaign order, each as
#: ``(start_round, stop_round, event)``.
Timeline = Sequence[tuple[int, int, FaultEvent]]


@dataclass(frozen=True)
class CrashStorm(FaultEvent):
    """Crash a fraction of the currently-live members, all at once.

    The victims are sampled uniformly at the event round — an *uncorrelated*
    burst, violating the paper's small-independent-``pf`` assumption in
    magnitude but not in structure.
    """

    at: float          #: event time, as a fraction of the horizon
    fraction: float    #: fraction of live members crashed

    def __post_init__(self):
        _check_fraction("at", self.at)
        _check_fraction("fraction", self.fraction)


@dataclass(frozen=True)
class CorrelatedCrash(FaultEvent):
    """Wipe whole grid boxes (racks) at once, optionally recovering later.

    Grid-box-correlated failure is the protocol's worst case: a box holds
    *every* copy of its members' phase-1 votes, so losing a box before its
    aggregate escapes the subtree loses those votes for good.  ``boxes``
    is the fraction of occupied grid boxes wiped; with ``recover_at`` set
    the victims reboot together at that time (state preserved — the
    simulator's persisted-vote recovery semantics).
    """

    at: float                    #: event time (fraction of horizon)
    boxes: float                 #: fraction of occupied grid boxes wiped
    recover_at: float | None = None  #: group reboot time, None = never

    def __post_init__(self):
        _check_fraction("at", self.at)
        _check_fraction("boxes", self.boxes)
        if self.recover_at is not None:
            _check_fraction("recover_at", self.recover_at)
            if self.recover_at <= self.at:
                raise ValueError(
                    f"recover_at ({self.recover_at}) must be after the "
                    f"crash at {self.at}"
                )


@dataclass(frozen=True)
class ChurnWindow(FaultEvent):
    """Membership churn: elevated crash rate with staggered recovery.

    During ``[start, stop)`` every live member crashes with probability
    ``crash_rate`` per round; each victim recovers after a delay drawn
    uniformly from ``recovery_delay`` rounds (inclusive).  Members rejoin
    with their state intact, mid-protocol — the rejoin-after-compose
    safety case the edge-case tests pin.
    """

    start: float
    stop: float
    crash_rate: float                       #: per-round crash probability
    recovery_delay: tuple[int, int] = (2, 8)  #: min/max rounds down

    def __post_init__(self):
        _check_window(self.start, self.stop)
        _check_fraction("crash_rate", self.crash_rate)
        low, high = self.recovery_delay
        if not 1 <= low <= high:
            raise ValueError(
                f"recovery_delay must satisfy 1 <= min <= max, "
                f"got {self.recovery_delay}"
            )


@dataclass(frozen=True)
class PartitionWindow(FaultEvent):
    """A transient partition that heals: Figure 9's split, with an end.

    During ``[start, stop)`` the group is split into ``parts`` sides
    (``node_id % parts``) and cross-side messages are dropped with
    ``partl`` (never below the background loss).  At ``stop`` the
    partition heals and loss reverts to the background rate.
    """

    start: float
    stop: float
    partl: float = 0.9
    parts: int = 2

    def __post_init__(self):
        _check_window(self.start, self.stop)
        _check_fraction("partl", self.partl)
        if self.parts < 2:
            raise ValueError(f"parts must be >= 2, got {self.parts}")


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """A window of elevated uniform message loss (congestion burst).

    Two forms, exactly one of which must be given:

    * ``loss`` — an *absolute* rate: during ``[start, stop)`` the unicast
      loss probability becomes ``max(loss, background)``; overlapping
      absolute bursts take the maximum.
    * ``delta`` — an *additive* rate: the burst adds ``delta`` on top of
      the background (and any absolute bursts); overlapping deltas stack.

    However bursts combine, the effective per-round probability is always
    clamped to ``[0, 1]`` — stacked deltas on a nonzero base ``ucastl``
    cannot push the Bernoulli parameter out of range.
    """

    start: float
    stop: float
    loss: float | None = None
    delta: float | None = None

    def __post_init__(self):
        _check_window(self.start, self.stop)
        if (self.loss is None) == (self.delta is None):
            raise ValueError(
                "LossBurst needs exactly one of loss= (absolute rate) or "
                f"delta= (additive rate); got loss={self.loss}, "
                f"delta={self.delta}"
            )
        if self.loss is not None:
            _check_fraction("loss", self.loss)
        if self.delta is not None:
            _check_fraction("delta", self.delta)


@dataclass(frozen=True)
class LatencyBurst(FaultEvent):
    """A window of added delivery latency (queueing spike).

    Messages *sent* during ``[start, stop)`` take ``extra_rounds``
    additional rounds to deliver, so a message sent after the burst can
    overtake one sent inside it; arrival order is (delivery round, send
    order), as for every latency model.
    """

    start: float
    stop: float
    extra_rounds: int

    def __post_init__(self):
        _check_window(self.start, self.stop)
        if self.extra_rounds < 1:
            raise ValueError(
                f"extra_rounds must be >= 1, got {self.extra_rounds}"
            )


@dataclass(frozen=True)
class MessageTampering(FaultEvent):
    """Adversarial in-network tampering: forged, duplicated, or replayed
    protocol messages injected at a per-round rate.

    During ``[start, stop)`` an in-network adversary snoops delivered
    traffic and injects ``rate`` crafted messages per round (fractional
    rates are Bernoulli-rounded from the seeded ``adversary`` stream):

    * ``"forge"`` — a snooped contribution re-sent with a corrupted
      aggregate payload under the *same* member mask.  Violates mass
      conservation; the sanitizer's oracle must attribute it as a
      :class:`~repro.sanitize.ForgedContribution`.
    * ``"duplicate"`` — a genuine member's contribution re-presented
      under a *different* genuine member's key, so one vote would be
      counted twice.  Violates mask disjointness / key consistency; the
      oracle must attribute it as a
      :class:`~repro.sanitize.DoubleCountViolation`.
    * ``"replay"`` — a byte-identical stale copy of an earlier message
      re-delivered later.  Semantically harmless under the protocol's
      idempotent first-wins merge discipline; included to prove the
      oracle does *not* false-positive on benign duplication.

    ``rate=0.0`` is allowed and useful: it installs the adversary's
    screening oracle without injecting anything — the no-false-positive
    control arm of a campaign pair.
    """

    start: float
    stop: float
    rate: float             #: injections per round (fractional = Bernoulli)
    mode: str = "forge"     #: one of :data:`TAMPER_MODES`

    def __post_init__(self):
        _check_window(self.start, self.stop)
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.mode not in TAMPER_MODES:
            raise ValueError(
                f"mode must be one of {TAMPER_MODES}, got {self.mode!r}"
            )


@dataclass(frozen=True)
class SybilJoinStorm(FaultEvent):
    """A burst of fake identities hashed into the grid, spamming
    contributions for members that do not exist.

    At time ``at`` the adversary mints ``count`` fresh identities (ids
    above the genuine range), hashes each into a grid box with the
    group's own hash function, and has each send one forged contribution
    to a live member of that box.  Every admitted Sybil vote is a
    foreign-member violation the sanitizer oracle must attribute as a
    :class:`~repro.sanitize.ForgedContribution`.

    ``pow_bits`` is the proof-of-work admission knob (cf. Gambs et al.,
    PAPERS.md): each identity must exhibit a nonce whose SHA-256 digest
    carries ``pow_bits`` leading zero bits within a ``pow_budget``-nonce
    search.  ``pow_bits=0`` admits everyone; raising it deterministically
    thins the storm (the search is pure hashing, no RNG involved).
    """

    at: float
    count: int              #: identities minted in the burst
    pow_bits: int = 0       #: required leading zero bits, 0 = open door
    pow_budget: int = 64    #: nonces each identity may try

    def __post_init__(self):
        _check_fraction("at", self.at)
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.pow_bits < 0:
            raise ValueError(f"pow_bits must be >= 0, got {self.pow_bits}")
        if self.pow_budget < 1:
            raise ValueError(
                f"pow_budget must be >= 1, got {self.pow_budget}"
            )


@dataclass(frozen=True)
class RegionPartition(FaultEvent):
    """An asymmetric multi-region WAN partition over region-aware
    placement.

    Members are assigned to ``num_regions`` WAN regions by contiguous
    grid-box prefix ranges (:class:`repro.topology.RegionMap` — region
    boundaries align with subtree boundaries wherever the hierarchy
    allows).  During ``[start, stop)``:

    * messages *leaving* an isolated region are dropped with probability
      ``outbound_loss``;
    * messages *entering* an isolated region are dropped with
      ``inbound_loss`` (asymmetry models one-way WAN degradation —
      BGP-style partial reachability, not a clean split);
    * all other cross-region traffic is dropped with ``wan_loss``
      (ambient WAN degradation during the incident).

    Intra-region traffic is untouched.  Like :class:`PartitionWindow`,
    a compiled campaign rejects two partitions active in the same round.
    """

    start: float
    stop: float
    num_regions: int = 3
    isolated: tuple[int, ...] = (0,)
    outbound_loss: float = 0.95
    inbound_loss: float = 0.7
    wan_loss: float = 0.0

    def __post_init__(self):
        _check_window(self.start, self.stop)
        if self.num_regions < 2:
            raise ValueError(
                f"num_regions must be >= 2, got {self.num_regions}"
            )
        if not self.isolated:
            raise ValueError("isolated must name at least one region")
        for region in self.isolated:
            if not 0 <= region < self.num_regions:
                raise ValueError(
                    f"isolated region {region} out of range "
                    f"[0, {self.num_regions})"
                )
        if len(set(self.isolated)) != len(self.isolated):
            raise ValueError(f"isolated has duplicates: {self.isolated}")
        if len(self.isolated) >= self.num_regions:
            raise ValueError(
                "isolated cannot cover every region "
                f"({len(self.isolated)} of {self.num_regions})"
            )
        _check_fraction("outbound_loss", self.outbound_loss)
        _check_fraction("inbound_loss", self.inbound_loss)
        _check_fraction("wan_loss", self.wan_loss)
