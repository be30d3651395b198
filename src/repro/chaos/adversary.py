"""In-network adversary: snoop, forge, duplicate, replay, Sybil-join.

:class:`TamperPlanner` is the compiled form of the adversarial fault
events (:class:`~repro.chaos.events.MessageTampering`,
:class:`~repro.chaos.events.SybilJoinStorm`).  It sits on the engine's
send tap as a passive *snoop* — every message a member submits is
offered to :meth:`observe`, which archives a bounded sample of the
traffic — and on the begin-round bus as the *injector*: during an active
tamper window it crafts messages from the archive (corrupted payloads,
re-keyed duplicates, stale replays) and at a Sybil storm it mints fake
identities, runs them through the proof-of-work gate, and has the
survivors spam contributions.  Crafted messages enter the engine through
:meth:`repro.sim.engine.SimulationEngine.inject`, from the round bus:
they arrive next round behind this round's delivery-time answers and
ahead of this round's step sends.  Both hooks need single messages, so
adversarial runs take the object engine (the array engine refuses a
send tap and injections).

Determinism: all sampling comes from the run's seeded ``adversary``
stream, the archive is filled in send order, and proof-of-work admission
is a pure hash function.  The planner also keeps the *ground truth* the detection
oracle is scored against: every planted state is registered, and
:mod:`repro.sanitize` reports back which planted states reached a merge
path and which were caught, yielding the per-campaign detection rate.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.chaos.pow import pow_admitted
from repro.core.aggregates import AggregateState
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask
from repro.core.messages import (
    AggregateReport,
    Dissemination,
    GossipBatch,
    GossipValue,
    VoteReport,
)
from repro.sim.network import Message

__all__ = ["TamperPlanner", "AdversarialSummary", "merge_adversarial"]

#: Archive capacity: enough to sample traffic from several phases without
#: the snoop buffer growing with N.
_ARCHIVE_CAP = 256

# Archive sample kinds (what wrapper the contribution travelled in).
_GOSSIP = 0   # GossipValue / one GossipBatch entry: (phase, key, state)
_VOTE = 1     # VoteReport: (member_id, state)
_REPORT = 2   # AggregateReport: (subtree_key, state)


def _mutate_payload(payload: Any) -> Any:
    """Corrupt an aggregate payload while keeping its algebra shape.

    Every float is remapped affinely (so sums/averages/extrema all move)
    and every int is shifted (so count channels disagree with the member
    mask) — a forgery the mass-conservation and count-consistency oracles
    are each guaranteed to notice.
    """
    if isinstance(payload, tuple):
        return tuple(_mutate_payload(item) for item in payload)
    if isinstance(payload, bool):  # pragma: no cover - defensive
        return payload
    if isinstance(payload, int):
        return payload + 7
    if isinstance(payload, float):
        return payload * 3.0 + 17.0
    return payload  # pragma: no cover - unknown scalar kind


def _hash_box(identity: int, num_boxes: int) -> int:
    """Deterministically hash a Sybil identity into an occupied box."""
    digest = hashlib.sha256(f"repro-sybil:{identity}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_boxes


@dataclass
class AdversarialSummary:
    """Per-run adversary accounting (picklable; rides ``RunResult``).

    ``reached`` counts planted contributions that actually arrived at a
    receiver's admission path while the detection oracle was screening;
    ``detected`` counts those the oracle caught and quarantined.  The
    headline score is ``detected / reached`` — injections that died in
    the lossy network (or arrived after their target finalized) never
    tested the oracle, so they are excluded from the denominator.
    """

    injected_forge: int = 0
    injected_duplicate: int = 0
    injected_replay: int = 0
    sybil_minted: int = 0
    sybil_admitted: int = 0
    reached: int = 0
    detected: int = 0
    false_positives: int = 0

    @property
    def injected_total(self) -> int:
        return (
            self.injected_forge + self.injected_duplicate
            + self.injected_replay + self.sybil_admitted
        )

    @property
    def detection_rate(self) -> float:
        """Fraction of oracle-visible planted contributions caught."""
        if self.reached == 0:
            return 0.0
        return self.detected / self.reached

    def to_record(self) -> dict:
        """JSON-safe dict for run records / matrix exports."""
        return {
            "injected_forge": self.injected_forge,
            "injected_duplicate": self.injected_duplicate,
            "injected_replay": self.injected_replay,
            "sybil_minted": self.sybil_minted,
            "sybil_admitted": self.sybil_admitted,
            "reached": self.reached,
            "detected": self.detected,
            "false_positives": self.false_positives,
            "detection_rate": round(self.detection_rate, 6),
        }


def merge_adversarial(
    summaries: list[AdversarialSummary | None],
) -> AdversarialSummary | None:
    """Sum adversary accounting across a campaign's runs."""
    present = [summary for summary in summaries if summary is not None]
    if not present:
        return None
    total = AdversarialSummary()
    for summary in present:
        total.injected_forge += summary.injected_forge
        total.injected_duplicate += summary.injected_duplicate
        total.injected_replay += summary.injected_replay
        total.sybil_minted += summary.sybil_minted
        total.sybil_admitted += summary.sybil_admitted
        total.reached += summary.reached
        total.detected += summary.detected
        total.false_positives += summary.false_positives
    return total


class TamperPlanner:
    """Snooping archive + per-round crafting for the adversarial events.

    Built by campaign compilation with the events already resolved to
    simulator rounds, with the membership layout; bound to the run's
    engine and seeded ``adversary`` stream at install time.
    """

    def __init__(
        self,
        tamper_windows: list[tuple[int, int, float, str]],
        sybil_storms: list[tuple[int, int, int, int]],
        box_groups: Sequence[Sequence[int]],
    ):
        #: ``(start_round, stop_round, rate, mode)`` — active while
        #: ``start <= round < stop``.
        self.tamper_windows = tuple(tamper_windows)
        #: ``(round, count, pow_bits, pow_budget)``.
        self.sybil_storms = tuple(sybil_storms)
        self._engine: Any = None
        self._rng: Any = None
        self._box_groups = tuple(tuple(group) for group in box_groups)
        members: list[int] = []
        for group in self._box_groups:
            members.extend(group)
        members.sort()
        self._member_ids = tuple(members)
        self._max_member_id = members[-1] if members else -1
        # Snooped traffic: all state-bearing samples, plus the subset
        # keyed by a genuine *member id* (re-keyable as duplicates).
        self._archive: deque = deque(maxlen=_ARCHIVE_CAP)
        self._archive_int: deque = deque(maxlen=_ARCHIVE_CAP)
        # Ground truth for the detection oracle: id(state) -> mode for
        # every planted must-detect state ("forge" | "duplicate" |
        # "sybil").  ``_pins`` keeps the states alive so ids stay valid.
        self._planted: dict[int, str] = {}
        self._reached_ids: set[int] = set()
        self._detected_ids: set[int] = set()
        self._pins: list[AggregateState] = []
        self._fired_storms: set[int] = set()
        self._minted = 0
        self.summary = AdversarialSummary()

    # -- wiring ----------------------------------------------------------
    def bind(self, engine: Any, rng: Any) -> None:
        """Attach the run's engine and seeded ``adversary`` stream.  The
        engine holds the planner (its send tap), so the planner holds the
        engine weakly: a finished run has no cycle to collect."""
        self._engine = weakref.proxy(engine)
        self._rng = rng

    # -- snoop -----------------------------------------------------------
    def observe(self, message: Message) -> None:
        """Archive one submitted message (the engine's send tap)."""
        payload = message.payload
        dest = message.dest
        if isinstance(payload, GossipValue):
            self._note_gossip(
                payload.phase, payload.key, payload.state, dest
            )
        elif isinstance(payload, GossipBatch):
            if payload.entries:
                key, state = payload.entries[0]
                self._note_gossip(payload.phase, key, state, dest)
        elif isinstance(payload, VoteReport):
            sample = (_VOTE, payload.member_id, payload.state, dest)
            self._archive.append(sample)
            self._archive_int.append(sample)
        elif isinstance(payload, AggregateReport):
            self._archive.append(
                (_REPORT, payload.subtree_key, payload.state, dest)
            )
        elif isinstance(payload, Dissemination):
            pass  # final estimates carry no new contribution to abuse

    def _note_gossip(
        self, phase: int, key: Any, state: AggregateState, dest: int
    ) -> None:
        sample = (_GOSSIP, (phase, key), state, dest)
        self._archive.append(sample)
        if phase == 1 and isinstance(key, int):
            self._archive_int.append(sample)

    # -- injection -------------------------------------------------------
    def on_round_start(self, round_number: int) -> None:
        """Craft and inject this round's adversarial traffic."""
        for start, stop, rate, mode in self.tamper_windows:
            if not start <= round_number < stop:
                continue
            count = int(rate)
            fraction = rate - count
            if fraction > 0.0 and self._rng.random() < fraction:
                count += 1
            for _ in range(count):
                self._inject_tampered(mode, round_number)
        for index, (at, count, pow_bits, pow_budget) in enumerate(
            self.sybil_storms
        ):
            # A storm scheduled before any traffic was snooped (short
            # horizons put ``at`` in round 0) defers to the first round
            # with archive samples to impersonate — deterministically.
            if (round_number >= at and index not in self._fired_storms
                    and self._archive):
                self._fired_storms.add(index)
                self._sybil_storm(count, pow_bits, pow_budget, round_number)

    def _pick(self, archive: deque) -> tuple | None:
        if not archive:
            return None
        return archive[int(self._rng.integers(len(archive)))]

    def _register(self, state: AggregateState, mode: str) -> None:
        self._planted[id(state)] = mode
        self._pins.append(state)

    def _send(
        self, round_number: int, dest: int, payload: Any
    ) -> None:
        message = Message(
            src=-1, dest=dest, payload=payload,
            size=payload.wire_size(), sent_round=round_number,
        )
        self._engine.inject(round_number + 1, message)

    def _rewrap(self, sample: tuple, state: AggregateState) -> Any:
        kind, key, __, __ = sample
        if kind == _GOSSIP:
            phase, gossip_key = key
            return GossipValue(phase, gossip_key, state)
        if kind == _VOTE:
            return VoteReport(key, state)
        return AggregateReport(key, state)

    def _inject_tampered(self, mode: str, round_number: int) -> None:
        if mode == "duplicate":
            sample = self._pick(self._archive_int)
            if sample is None:
                return
            kind, key, state, dest = sample
            victim = key[1] if kind == _GOSSIP else key
            other = self._other_member(victim)
            if other is None:
                return
            planted = AggregateState(state.payload, state.members)
            self._register(planted, "duplicate")
            if kind == _GOSSIP:
                payload: Any = GossipValue(1, other, planted)
            else:
                payload = VoteReport(other, planted)
            self._send(round_number, dest, payload)
            self.summary.injected_duplicate += 1
            return
        sample = self._pick(self._archive)
        if sample is None:
            return
        __, __, state, dest = sample
        if mode == "forge":
            planted = AggregateState(
                _mutate_payload(state.payload), state.members
            )
            self._register(planted, "forge")
            self._send(round_number, dest, self._rewrap(sample, planted))
            self.summary.injected_forge += 1
        else:  # replay: byte-equivalent stale copy, benign by design
            self._send(round_number, dest, self._rewrap(sample, state))
            self.summary.injected_replay += 1

    def _other_member(self, victim: int) -> int | None:
        """A genuine member id different from ``victim``."""
        members = self._member_ids
        if len(members) < 2:
            return None
        index = int(self._rng.integers(len(members)))
        if members[index] == victim:
            index = (index + 1) % len(members)
        return members[index]

    def _sybil_storm(
        self, count: int, pow_bits: int, pow_budget: int, round_number: int
    ) -> None:
        base = self._max_member_id + 1 + self._minted
        self._minted += count
        self.summary.sybil_minted += count
        for identity in range(base, base + count):
            if not pow_admitted(identity, pow_bits, budget=pow_budget):
                continue
            sample = self._pick(self._archive)
            if sample is None:
                continue
            kind, key, state, dest = sample
            # Coverage slots are ranks 0..N-1 or member ids <= the
            # maximum: either way ``identity`` names no member's vote.
            planted = AggregateState(
                state.payload, IntervalMask.single(identity)
            )
            self._register(planted, "sybil")
            if kind == _GOSSIP:
                # Hash the fake identity into an occupied grid box and
                # spam a member of that box, as a joiner would.
                group = self._box_groups[
                    _hash_box(identity, len(self._box_groups))
                ]
                payload: Any = GossipValue(1, identity, planted)
                target = group[0]
            elif kind == _VOTE:
                payload = VoteReport(identity, planted)
                target = dest
            else:
                pseudo = SubtreeId(key.prefix_length, identity)
                payload = AggregateReport(pseudo, planted)
                target = dest
            self._send(round_number, target, payload)
            self.summary.sybil_admitted += 1

    # -- detection-oracle callbacks (from repro.sanitize) ----------------
    def planted_mode(self, state: AggregateState) -> str | None:
        """The tamper mode of a planted state, or None if genuine."""
        return self._planted.get(id(state))

    def note_reached(self, state: AggregateState) -> None:
        """A planted state arrived at a screened admission path."""
        key = id(state)
        if key not in self._reached_ids:
            self._reached_ids.add(key)
            self.summary.reached += 1

    def note_detected(self, state: AggregateState) -> None:
        """The oracle caught and quarantined a planted state."""
        key = id(state)
        if key not in self._detected_ids:
            self._detected_ids.add(key)
            self.summary.detected += 1

    def note_false_positive(self) -> None:
        """The oracle flagged a *genuine* contribution."""
        self.summary.false_positives += 1
