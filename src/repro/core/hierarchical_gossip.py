"""The Hierarchical Gossiping protocol (paper Section 6.3).

Each member runs ``log_K N`` phases over the Grid Box Hierarchy:

* **Phase 1** — gossip, within the member's own grid box, individual
  ``(member id, vote)`` pairs: each round the member picks a few gossipees
  uniformly at random from the box and pushes one randomly selected known
  vote.  After the phase it composes the known votes into the grid box
  aggregate.
* **Phase i > 1** — gossip, within the member's height-``i`` subtree, the
  aggregates of that subtree's ``K`` height-``(i-1)`` children (of which
  the member already knows its own from phase ``i-1``).  At most ``K``
  values circulate, so message size stays O(1).
* **Bump-up** (step II(b)) — a member advances to phase ``i+1`` as soon as
  it knows the values of *all* occupied sibling child subtrees, or when
  the phase times out after ``rounds_per_phase`` gossip rounds.  Members
  therefore move through phases *asynchronously*; values received for a
  future phase are buffered, values for a past phase are ignored.
* **Structural admission** — the hash function and N are well known, so
  a receiver knows which keys its hierarchy places under each phase and
  which ranks each may cover: a box member's own rank in phase 1, a
  child subtree's rank range later.  An entry outside that is refused
  (re-keyed duplicates, Sybil ids, keys from another subtree) with no
  oracle's help, and a member holds at most its box's members or K
  children per phase.
* **Final phase** — after composing phase ``log_K N`` the member holds its
  estimate of the global aggregate and terminates.

No leader election, no failure detection, and no acknowledgement traffic;
robustness comes purely from the epidemic redundancy of gossip.

Complexities (paper): O(log^2 N) rounds, O(N log^2 N) messages, and the
completeness is lower-bounded by ``1 - 1/N`` for ``K >= 2`` and effective
contact rate ``b >= 4`` (Theorem 1; see :mod:`repro.analysis.epidemic`).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

import repro.sanitize as sanitize
from repro.core.aggregates import AggregateFunction, AggregateState, StateTable
from repro.core.gridbox import GridAssignment, SubtreeId
from repro.core.intervals import IntervalMask
from repro.core.messages import GossipBatch, GossipValue
from repro.core.observe import (
    BUMP_UP_EARLY,
    BUMP_UP_TIMEOUT,
    PhaseEvent,
    PhaseSink,
    format_key,
    format_subtree,
)
from repro.core.protocol import AggregationProcess, MemberColumns
from repro.core.runtime import Context
from repro.sim.network import Message
from repro.sim.sampling import BlockedSampler

__all__ = [
    "GossipGroup",
    "GossipParams",
    "GroupMember",
    "HierarchicalGossipProcess",
    "build_hierarchical_gossip_group",
    "rounds_per_phase_for",
]


def rounds_per_phase_for(group_size: int, c: float) -> int:
    """Paper Section 7: ``ceil(C * log N)`` gossip rounds per phase.

    All logarithms in the paper are natural (base e); the gossip fanout
    ``M`` does not change the phase length, only the per-round volume.
    Floor of 2 for non-trivial groups: with one-round message latency a
    single-round phase could never deliver anything.
    """
    if group_size < 1:
        raise ValueError("group_size must be positive")
    if c <= 0:
        raise ValueError("C must be positive")
    floor = 2 if group_size > 1 else 1
    return max(floor, math.ceil(c * math.log(group_size)))


def is_representative(member: int, phase: int, fraction: float) -> bool:
    """Whether ``member`` actively gossips in ``phase``: always in phase
    1 (votes exist nowhere else), else a deterministic hash of (member,
    phase) selects ``fraction`` of the members."""
    if fraction >= 1.0 or phase == 1:
        return True
    digest = hashlib.sha256(f"rep:{member}:{phase}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64) < fraction


@cache
def retransmit_rounds(count: int) -> frozenset[int]:
    """Final-phase retransmission checkpoints: phase rounds 1, 2, 4, ...
    (exponential backoff), ``count`` of them (``final_retransmit``)."""
    return frozenset(2 ** j for j in range(count))


def partial_view_keys(
    assignment: GridAssignment, member: int, view: Iterable[int], phase: int,
) -> frozenset:
    """The keys a member with a partial ``view`` needs to compose
    ``phase``: the votes of view members sharing its grid box (its own
    included) in phase 1, later the occupied child subtrees its view
    reaches (its own included)."""
    if phase == 1:
        my_box = assignment.box_of(member)
        keys = {
            peer
            for peer in view
            if assignment.has_member(peer)
            and assignment.box_of(peer) == my_box
        }
        keys.add(member)
        return frozenset(keys)
    subtree = assignment.subtree_of(member, phase)
    hierarchy = assignment.hierarchy
    keys = {
        child
        for child in hierarchy.child_subtrees(subtree)
        if any(
            assignment.has_member(peer)
            and hierarchy.contains(child, assignment.box_of(peer))
            for peer in view
        )
    }
    keys.add(assignment.subtree_of(member, phase - 1))
    return frozenset(keys)


def covered_ids(assignment: GridAssignment, mask: IntervalMask) -> list[int]:
    """Member ids behind ``mask``'s ranks, in rank order.

    A slot past the last rank is no member of this run (a Sybil identity
    minted above the membership); it is reported as itself.
    """
    by_rank = assignment.members_by_rank()
    ids: list[int] = []
    for lo, hi in mask.intervals():
        ids.extend(by_rank[lo:hi + 1])
        ids.extend(range(max(lo, len(by_rank)), hi + 1))
    return ids


# -- phase events: the process and the array stepper decide the bump
# events by this rule -------------------------------------------------
def bump_events(complete, missing, final, timed_out) -> tuple:
    """Which events record *why* a phase ended — for one member or, over
    arrays, for many: ``(fires, closing)``.

    ``fires`` is whether ``subtree_complete`` fires: the member knew
    every expected value with full child coverage (``complete``).
    ``closing`` is the kind code (:data:`~repro.core.observe
    .PHASE_EVENT_KINDS`) of the bump event that follows, or -1: an
    intermediate phase ends with exactly one of ``bump_up_early``
    (advanced before the nominal deadline, step II(b)) or
    ``bump_up_timeout``; the final phase always serves until the global
    deadline, so it only emits ``bump_up_timeout`` when values are
    actually ``missing`` — the timeout counters stay a pure failure
    signal.  A timeout lists the missing keys.
    """
    complete, missing, final, timed_out = (
        np.asarray(column, dtype=bool)
        for column in (complete, missing, final, timed_out)
    )
    closing = np.where(
        (missing & (timed_out | final)) | (timed_out & ~final),
        BUMP_UP_TIMEOUT, np.where(final, -1, BUMP_UP_EARLY),
    )
    return complete, closing


#: Adaptive deadlines' per-phase extension budget, as a fraction of the
#: nominal phase length.
EXTENSION_FACTOR = 0.5


@dataclass(frozen=True)
class GossipParams:
    """Tunable knobs of the protocol, with the paper's Section 7 defaults.

    ``fanout_m`` — gossipees contacted per round (paper's ``M``).
    ``rounds_factor_c`` — rounds per phase are ``ceil(C log N)``;
    ``rounds_per_phase`` overrides the formula when set (Figure 8 sweeps
    it directly).
    ``early_bump`` — step II(b) asynchronous advancement; disable to force
    the full timeout every phase (the analysis Section 6.3 assumption; an
    ablation benchmark compares both).
    ``batch_values`` — push up to K (the hierarchy's) of the sender's
    current-phase values per gossip message instead of exactly one.  This
    is the default because single-value push cannot reach the
    incompleteness magnitudes the paper's Figures 6-11 report; ``False``
    is the strict protocol text (one value per message) — the ablation
    benchmark quantifies the gap.  K keeps every message the constant
    size the protocol already needs for its phase-``i>1`` state (at most
    K child aggregates, Section 6.3); phase-1 boxes holding more than K
    votes push a random subset each round.
    ``independent_values`` — single-value gossip picks *one* known value
    per round and pushes it to all ``M`` gossipees (paper literal);
    setting this picks a fresh random value per gossipee instead
    (ablation; ignored when ``batch_values``).
    ``push_pull`` — answer each received (non-reply) same-phase batch
    with the receiver's own current-phase state.  A classic rumor-
    mongering strengthening the paper does not use (its protocol is pure
    push); roughly doubles message volume in exchange for faster
    convergence — an extension ablation.
    ``representative_fraction`` — the paper's phase descriptions say
    "each member M_j (or a representative) evaluates ...": in phases
    ``i > 1`` only this (hash-selected, deterministic) fraction of each
    subtree's members actively gossips; everyone still listens and
    composes.  1.0 (default) = all members gossip, the paper's simulated
    setting; lower values trade message volume for completeness.
    ``prefer_coverage`` — when two versions of the same child aggregate
    circulate (a member that timed out composes an *incomplete* aggregate
    of the same subtree a complete one exists for), keep the version
    covering more votes.  The vote count is already on the wire for any
    count-bearing aggregate (e.g. average), so this costs nothing; the
    paper's "knows ... when it first receives" first-wins rule is the
    ablation (``False``).
    ``adaptive_deadlines`` — hardening extension (off = paper protocol):
    when a phase times out with child values still missing *and* the
    locally observed delivery rate indicates heavy loss, extend the phase
    one round at a time instead of composing a partial aggregate, up to
    ``ceil(EXTENSION_FACTOR * rounds_per_phase)`` extra rounds per phase.
    The member's final deadline slides by the rounds it actually
    borrowed, so the total extension is bounded and the O(log^2 N) round
    complexity is preserved up to a constant factor.
    ``final_retransmit`` — hardening extension (0 = paper protocol):
    in the *final* phase, a member that is not an active representative
    (``representative_fraction < 1``) still pushes its state to ``M``
    fresh random peers at exponentially backed-off rounds (phase rounds
    1, 2, 4, ...), at most ``final_retransmit`` times.  Protects the
    scarce final-phase representative messages against loss without
    reintroducing per-round traffic from every member.
    """

    fanout_m: int = 2
    rounds_factor_c: float = 1.0
    rounds_per_phase: int | None = None
    early_bump: bool = True
    batch_values: bool = True
    independent_values: bool = False
    prefer_coverage: bool = True
    push_pull: bool = False
    representative_fraction: float = 1.0
    adaptive_deadlines: bool = False
    final_retransmit: int = 0

    def __post_init__(self):
        if not 0.0 < self.representative_fraction <= 1.0:
            raise ValueError(
                "representative_fraction must be in (0, 1]"
            )
        if self.fanout_m < 1:
            raise ValueError(
                f"gossip fanout M must be >= 1, got {self.fanout_m}"
            )
        if self.final_retransmit < 0:
            raise ValueError(
                f"final_retransmit must be >= 0, got {self.final_retransmit}"
            )

    @classmethod
    def from_config(cls, config: object) -> "GossipParams":
        """The params a run or node config carries: every field of this
        class that ``config`` has (``RunConfig`` / ``NodeConfig`` take
        those fields' defaults from here), the rest at their defaults."""
        return cls(**{
            f.name: getattr(config, f.name)
            for f in fields(cls) if hasattr(config, f.name)
        })

    def extension_budget(self, rounds_per_phase: int) -> int:
        """Max extra rounds one phase may borrow under adaptive deadlines."""
        if not self.adaptive_deadlines:
            return 0
        return math.ceil(EXTENSION_FACTOR * rounds_per_phase)

    def resolve_rounds(self, group_size: int) -> int:
        if self.rounds_per_phase is not None:
            if self.rounds_per_phase < 1:
                raise ValueError("rounds_per_phase must be >= 1")
            return self.rounds_per_phase
        return rounds_per_phase_for(group_size, self.rounds_factor_c)

    def round_budget(
        self, group_size: int, num_phases: int, start_spread: int = 0
    ) -> int:
        """Rounds by which every member has finished: the latest start,
        then ``num_phases`` phases, each with the extension it may
        lawfully borrow under adaptive deadlines."""
        rounds = self.resolve_rounds(group_size)
        return start_spread + num_phases * (
            rounds + self.extension_budget(rounds)
        )


class _PayloadMemo:
    """The payloads built from one state of ``known``.

    ``version`` is the ``_known_version`` both were built at: ``push``
    is the round batch and its wire size (absent while ``known`` is over
    the batch cap — a fresh random subset goes out every round),
    ``reply`` the push-pull answer.
    """

    __slots__ = ("version", "push", "reply")

    def __init__(self, version: int):
        self.version = version
        self.push: tuple[GossipBatch, int] | None = None
        self.reply: GossipBatch | None = None


class HierarchicalGossipProcess(AggregationProcess):
    """One group member executing Hierarchical Gossiping."""

    def __init__(
        self,
        node_id: int,
        vote: float,
        function: AggregateFunction,
        assignment: GridAssignment,
        view: Iterable[int],
        params: GossipParams,
        start_round: int = 0,
        phase_sink: PhaseSink | None = None,
    ):
        """``start_round`` models multicast-wave initiation (Section 2):
        the paper assumes simultaneous start "but our results apply in
        cases such as a multicast being used for protocol initiation" —
        a member whose start is delayed buffers incoming gossip and joins
        when its wave arrives, with its deadline measured from its own
        start.

        ``phase_sink`` (see :mod:`repro.core.observe`) receives typed
        protocol events — phase entries, early vs timeout bump-ups,
        finalization.  ``None`` (the default) emits nothing and costs
        nothing; emission draws no randomness, so traced runs are
        byte-identical to untraced ones."""
        super().__init__(node_id, vote, function)
        #: First round this member acts in (``on_start`` moves it up to
        #: the round it actually starts); its deadline counts from it.
        self.start_round = int(start_round)
        self.phase_sink = phase_sink
        self.assignment = assignment
        self.view = tuple(view)
        self.params = params
        self.rounds_per_phase = params.resolve_rounds(
            assignment.hierarchy.group_size
        )
        self.phase = 1
        self.phase_rounds = 0
        #: Values known for the current phase, keyed by member id (phase 1)
        #: or child SubtreeId (later phases).  First received value wins.
        self.known: dict[object, AggregateState] = {}
        #: Buffered values for future phases.
        self._future: dict[int, dict[object, AggregateState]] = {}
        self._expected_cache: dict[int, frozenset] = {}
        # Views are subsets of the assignment's membership, so a view as
        # large as the membership is complete — that unlocks the shared
        # subtree caches instead of per-member view scans.
        self._complete_view = len(self.view) >= len(assignment.member_ids)
        #: phase -> (shared member tuple of my subtree, my index in it);
        #: index is None for partial views (tuple then excludes me).
        self._peers_cache: dict[int, tuple[tuple[int, ...], int | None]] = {}
        #: Cached per-process gossip sampler (block-drawn doubles over
        #: the stable per-member stream from the run's RngRegistry;
        #: avoids a registry lookup every round).
        self._sampler: BlockedSampler | None = None
        #: Monotone counter bumped on every mutation of ``known``; lets
        #: the batch payload (and its wire size) and the push-pull reply
        #: be reused for as long as nothing new arrived.
        self._known_version = 0
        #: The payloads last built from ``known`` (see :meth:`_memo`).
        self._batch_cache: _PayloadMemo | None = None
        #: (phase, verdict) memo for :meth:`_is_representative` — the
        #: role is stable for the whole phase, so hash it once.
        self._rep_cache: tuple[int, bool] | None = None
        # -- hardening state (all zero when the knobs are off) ----------
        #: Messages admitted for the *current* phase (observed-delivery
        #: signal for the adaptive deadline).
        self._phase_received = 0
        #: Extra rounds granted to the current phase so far.
        self._phase_extension = 0
        #: Total extra rounds borrowed across all phases; slides the
        #: member's final deadline so late phases are not squeezed.
        self._deadline_extension = 0
        #: Arrived entries refused because the hierarchy does not place
        #: them under their key (see :meth:`_placed`).
        self.refused = 0

    # -- structure helpers ------------------------------------------------
    @property
    def num_phases(self) -> int:
        return self.assignment.hierarchy.num_phases

    @property
    def slot(self) -> int:
        """Votes are lifted at hierarchy rank, not member id: a complete
        subtree's coverage is then one interval (see ``GridAssignment``)."""
        return self.assignment.rank_of(self.node_id)

    def covered_ids(self, mask: IntervalMask) -> list[int]:
        """Member ids behind ``mask``'s ranks (:func:`covered_ids`)."""
        return covered_ids(self.assignment, mask)

    def _expected_keys(self, phase: int) -> frozenset:
        """Keys whose values this member needs to compose phase ``phase``.

        Computed from the member's *view* (the paper never requires more):
        phase 1 needs the votes of view members sharing the grid box;
        later phases need the aggregates of the occupied child subtrees.
        A member can compute any view member's box locally because the
        hash function and N are well-known (Section 6.1).

        Complete-view members share one frozenset per box / subtree via
        the assignment's caches (every member of a subtree expects the
        same keys); partial views compute a private set from the view.
        """
        cached = self._expected_cache.get(phase)
        if cached is not None:
            return cached
        assignment = self.assignment
        if self._complete_view:
            # Shared per-box / per-subtree frozensets: this member is in
            # its own box and occupies its own child subtree, so the
            # shared sets already include it.
            if phase == 1:
                result = assignment.box_key_set(
                    assignment.box_of(self.node_id)
                )
            else:
                result = assignment.occupied_child_key_set(
                    assignment.subtree_of(self.node_id, phase)
                )
            self._expected_cache[phase] = result
            return result
        result = partial_view_keys(assignment, self.node_id, self.view, phase)
        self._expected_cache[phase] = result
        return result

    def _peers_for_phase(
        self, phase: int
    ) -> tuple[tuple[int, ...], int | None]:
        """Gossipee pool for ``phase``: (member tuple, own index).

        Complete views share the assignment's subtree tuples (which include
        this member — ``own index`` lets sampling skip it without copying);
        partial views materialize a filtered tuple that excludes it.
        """
        cached = self._peers_cache.get(phase)
        if cached is not None:
            return cached
        if self._complete_view:
            result = self.assignment.pool_and_position(self.node_id, phase)
        else:
            pool = tuple(
                self.assignment.peers_in_subtree(
                    self.node_id, phase, self.view
                )
            )
            result = (pool, None)
        self._peers_cache[phase] = result
        return result

    # -- observation (all no-ops without a phase sink; no randomness) -----
    def _subtree_label(self, phase: int) -> str:
        return format_subtree(
            self.assignment.hierarchy,
            self.assignment.subtree_of(self.node_id, phase),
        )

    def _at(self, ctx: Context, phase: int) -> tuple:
        """Where this member's phase-``phase`` events happen."""
        return (self.node_id, ctx.round, phase, self._subtree_label(phase))

    def _emit_phase_enter(self, ctx: Context) -> None:
        """``phase_enter``, then ``representative_elected`` where the
        role is selective (past phase 1, fraction < 1)."""
        if self.phase_sink is None:
            return
        at = self._at(ctx, self.phase)
        self.phase_sink.emit(PhaseEvent("phase_enter", *at))
        if (self.params.representative_fraction < 1.0 and self.phase > 1
                and self._is_representative()):
            self.phase_sink.emit(PhaseEvent("representative_elected", *at))

    def _emit_bump(self, ctx: Context) -> None:
        """Why the phase ended (:func:`bump_events`)."""
        if self.phase_sink is None:
            return
        at = self._at(ctx, self.phase)
        missing = self._expected_keys(self.phase) - self.known.keys()
        fires, closing = bump_events(
            not missing and self._values_fully_cover(), bool(missing),
            self.phase >= self.num_phases,
            self.phase_rounds >= self.rounds_per_phase + self._phase_extension,
        )
        if fires:
            self.phase_sink.emit(PhaseEvent("subtree_complete", *at))
        if closing == BUMP_UP_TIMEOUT:
            self.phase_sink.emit(PhaseEvent(
                "bump_up_timeout", *at, missing=tuple(sorted(
                    format_key(self.assignment.hierarchy, key)
                    for key in missing
                )),
            ))
        elif closing == BUMP_UP_EARLY:
            self.phase_sink.emit(PhaseEvent("bump_up_early", *at))

    def _emit_finalize(self, ctx: Context) -> None:
        if self.phase_sink is not None:
            self.phase_sink.emit(PhaseEvent(
                "finalize", *self._at(ctx, self.num_phases),
                coverage=self.coverage_fraction,
            ))

    # -- engine callbacks ---------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        self.known = {self.node_id: self.own_state()}
        self._known_version += 1
        self.start_round = max(ctx.round, self.start_round)
        if sanitize.ACTIVE:
            sanitize.start_clock((self.node_id,))
        self._emit_phase_enter(ctx)

    def on_message(self, ctx: Context, message: Message) -> None:
        answers: list[tuple[int, GossipBatch]] = []
        self.absorb_payloads((message.payload,), ctx.round, answers)
        for __, answer in answers:
            ctx.send(message.src, answer, size=answer.wire_size())

    def absorb_payloads(
        self,
        payloads: Iterable[object],
        round_number: int,
        answers: list[tuple[int, GossipBatch]] | None = None,
    ) -> bool:
        """Admit arrived payloads (paper step II); True if ``known`` changed.

        The object engine's one admission routine: :meth:`on_message`
        passes its single payload, :meth:`_maybe_advance` the values it
        had buffered for the phase it enters (the array stepper applies
        the rule to its rows itself).  A past-phase payload is ignored (that
        phase is already composed here), a future-phase one is
        buffered, and per key the most-complete value wins (or the
        first received, under the ``prefer_coverage=False`` ablation) —
        after the adversarial admission screen (``round_number``, the
        engine round, attributes a detection).  An entry this member
        already holds is skipped before the screen: admitting a state
        over itself changes nothing, so a batch that arrives again
        costs one identity test per entry and is never kept.  An entry
        about to be stored must be one the hierarchy places under its
        key (:meth:`_placed`); one that is not is refused and counted
        in :attr:`refused`, so ``known`` and the future buffer hold at
        most a box's members or ``K`` children per phase.  Advancing is
        the round step's job, never admission's.

        It is also the one place a push-pull reply is decided: a
        non-reply batch of this member's current phase is answered with
        the member's state as it stands *before* that batch is absorbed
        (so a repeated request still pulls), appended to ``answers`` as
        ``(position in payloads, answer)`` for the caller to send to
        that payload's sender.  ``answers=None`` (or push-pull off)
        answers nothing.
        """
        if self.result is not None:
            return False
        version_before = self._known_version
        my_phase = self.phase
        known = self.known
        future = self._future
        screen = sanitize.SCREEN
        prefer_coverage = self.params.prefer_coverage
        pulled = answers if self.params.push_pull else None
        received = 0
        for position, payload in enumerate(payloads):
            if isinstance(payload, GossipBatch):
                phase = payload.phase
                entries = payload.entries
                if (
                    pulled is not None
                    and phase == my_phase
                    and not payload.reply
                    and known
                ):
                    pulled.append((position, self._pull_reply()))
            elif isinstance(payload, GossipValue):
                phase = payload.phase
                entries = ((payload.key, payload.state),)
            else:
                continue
            if phase < my_phase:
                continue
            if phase == my_phase:
                bucket = known
                # Every delivery counts, novel or not: this measures
                # network health for the adaptive deadline.
                received += 1
            else:
                bucket = future.get(phase, {})
            for key, state in entries:
                current = bucket.get(key)
                if current is state:
                    continue
                if screen is not None and not screen(
                    self, round_number, phase, key, state
                ):
                    continue  # quarantined: adversarial content detected
                if current is None or (
                    prefer_coverage
                    and state.members.count > current.members.count
                ):
                    if not self._placed(phase, key, state):
                        self.refused += 1
                        continue
                    bucket[key] = state
                    if bucket is known:
                        self._known_version += 1
                    else:
                        future[phase] = bucket
        self._phase_received += received
        return self._known_version != version_before

    def _placed(self, phase: int, key: object, state: AggregateState) -> bool:
        """Whether the hierarchy places ``state`` under ``key`` in this
        member's phase-``phase`` subtree (structural admission).

        The hash and N are well known (Section 6.1), so the receiver
        checks alone: a phase-1 key is a member of its grid box and the
        state covers exactly that member's rank; a later key is a child
        ``SubtreeId`` of its phase subtree and the state's ranks lie in
        that child's rank range (empty for an unoccupied child).  A
        re-keyed duplicate, a Sybil id or a key from another subtree
        fails; a forged payload under the right key and mask does not.
        """
        assignment = self.assignment
        bounds = state.members.bounds
        if phase == 1:
            box = assignment.box_key_set(assignment.box_of(self.node_id))
            if key not in box:
                return False
            rank = assignment.rank_of(key)
            return bounds == (rank, rank)
        hierarchy = assignment.hierarchy
        if type(key) is not SubtreeId or not 1 < phase <= hierarchy.num_phases:
            return False
        length, value = key
        k = hierarchy.k
        parent = assignment.box_of(self.node_id) // k ** (phase - 1)
        if (
            length != hierarchy.digits + 2 - phase
            or type(value) is not int or value // k != parent
        ):
            return False
        ranks = assignment.subtree_rank_range(key)
        return bool(bounds) and (
            ranks.start <= bounds[0] <= bounds[-1] < ranks.stop
        )

    def on_round(self, ctx: Context) -> None:
        if self.result is not None or ctx.round < self.start_round:
            return
        self._gossip(ctx)
        self.phase_rounds += 1
        self._maybe_advance(ctx)

    def _deadline_reached(self, ctx: Context) -> bool:
        """Global protocol deadline: ``log_K N`` phases of full length.

        Members advance through intermediate phases asynchronously (early
        bump-up), but everyone serves the *final* phase until this shared
        deadline — an early finisher that went silent would starve
        stragglers (whole sibling subtrees arrive late together, since
        members of a slow subtree share their slow phases).  The deadline
        equals the synchronous schedule's end, so time complexity is
        unchanged: O(log^2 N) rounds.

        Under adaptive deadlines the member's deadline slides by the
        rounds earlier phases actually borrowed, and the final phase may
        itself borrow from its own bounded budget while values are still
        missing — so the worst case grows by at most
        ``extension_budget * num_phases`` rounds, a constant factor.
        """
        elapsed = ctx.round - self.start_round + 1
        deadline = (
            self.num_phases * self.rounds_per_phase + self._deadline_extension
        )
        if elapsed < deadline:
            return False
        if self._maybe_extend():
            return False
        return True

    def _maybe_extend(self) -> bool:
        """Grant the current phase one more round, if hardening allows.

        The extension triggers only when (a) adaptive deadlines are on,
        (b) this phase still misses expected values — composing now would
        lock in a partial aggregate — (c) the observed per-round delivery
        rate is below half the fanout, the local evidence of heavy loss,
        and (d) the phase's extension budget is not exhausted.
        """
        params = self.params
        if not params.adaptive_deadlines:
            return False
        budget = params.extension_budget(self.rounds_per_phase)
        if self._phase_extension >= budget:
            return False
        expected = self._expected_keys(self.phase)
        if len(self.known) >= len(expected) and self.known.keys() >= expected:
            return False  # nothing missing: the timeout compose is exact
        expected = params.fanout_m * max(1, self.phase_rounds)
        if self._phase_received * 2 >= expected:
            return False  # deliveries look healthy; missing peers are gone
        self._phase_extension += 1
        self._deadline_extension += 1
        return True

    # -- protocol steps -------------------------------------------------------
    def _batch_entries(
        self, sampler: BlockedSampler | None
    ) -> tuple[tuple[object, AggregateState], ...]:
        """Up to K current-phase values for one message.

        A random subset when over the cap (given a sampler); the first
        ``cap`` entries otherwise (push-pull replies, which need no
        randomness — the requester asked for whatever we have).
        """
        cap = self.assignment.hierarchy.k
        entries = list(self.known.items())
        if len(entries) > cap:
            if sampler is not None:
                subset = sampler.pick_distinct(len(entries), cap)
                entries = [entries[i] for i in subset]
            else:
                entries = entries[:cap]
        return tuple(entries)

    def _is_representative(self) -> bool:
        """Whether this member actively gossips in the current phase.

        Phase 1 always gossips (votes exist nowhere else); in later
        phases a deterministic hash of (member, phase) selects the
        configured fraction — deterministic so the role is stable for
        the whole phase and consistent across runs with the same seed
        (which also makes it memoizable per phase).
        """
        fraction = self.params.representative_fraction
        if fraction >= 1.0 or self.phase == 1:
            return True
        cached = self._rep_cache
        if cached is not None and cached[0] == self.phase:
            return cached[1]
        verdict = is_representative(self.node_id, self.phase, fraction)
        self._rep_cache = (self.phase, verdict)
        return verdict

    def _retransmit_due(self) -> bool:
        """Bounded final-phase retransmission with exponential backoff.

        Only meaningful for members sidelined by ``representative_fraction``:
        in the final phase they break silence at phase rounds 1, 2, 4, ...
        (at most ``final_retransmit`` times) to re-offer their composed
        child aggregates, protecting the scarce representative traffic
        against loss at O(log N) extra messages per member.
        """
        if self.phase < self.num_phases:
            return False
        return self.phase_rounds in retransmit_rounds(
            self.params.final_retransmit
        )

    def _round_payload(
        self, sampler: BlockedSampler
    ) -> tuple[GossipBatch, int]:
        """This round's batch payload and wire size (batch mode only).

        Reuses the batch (and its wire size) while ``known`` is
        unchanged — stream-safe because a batch within the cap consumes
        no randomness either way.  Called after the gossip targets are
        drawn: targets first, then any batch-subset doubles (the array
        stepper's snapshots draw in the same order).
        """
        memo = self._memo()
        if memo.push is not None:
            return memo.push
        payload = GossipBatch(self.phase, self._batch_entries(sampler))
        built = (payload, payload.wire_size())  # invariant across the picks
        # Over the cap K, a fresh random subset goes out every round.
        if len(self.known) <= self.assignment.hierarchy.k:
            memo.push = built
        return built

    def _memo(self) -> _PayloadMemo:
        """The payload memo of the current ``known`` (emptied when stale)."""
        memo = self._batch_cache
        if memo is None:
            memo = self._batch_cache = _PayloadMemo(self._known_version)
        elif memo.version != self._known_version:
            memo.version = self._known_version
            memo.push = memo.reply = None
        return memo

    def _pull_reply(self) -> GossipBatch:
        """The push-pull answer: this member's current-phase state.

        One object per state of ``known``, shared by every request that
        state answers — a requester that gets it twice finds every
        entry already held, like any repeated batch.
        """
        memo = self._memo()
        if memo.reply is None:
            memo.reply = GossipBatch(
                self.phase, self._batch_entries(None), reply=True
            )
        return memo.reply

    def _gossip(self, ctx: Context) -> None:
        """Steps I(a)/II(a): push one known value to ``M`` random peers."""
        if not self._is_representative() and not self._retransmit_due():
            return
        pool, own_index = self._peers_for_phase(self.phase)
        pool_size = len(pool) - (1 if own_index is not None else 0)
        if pool_size < 1 or not self.known:
            return
        sampler = self._sampler
        if sampler is None:
            sampler = self._sampler = BlockedSampler(ctx.rng_for("gossip"))
        count = min(self.params.fanout_m, pool_size)
        picks = (
            sampler.pick_distinct(pool_size, count)
            if count < pool_size
            else range(pool_size)
        )
        if self.params.batch_values:
            payload: GossipBatch | GossipValue
            payload, size = self._round_payload(sampler)
        else:
            keys = list(self.known)
            if not self.params.independent_values:
                chosen = keys[sampler.index(len(keys))]
        for pick in picks:
            # Map a draw over the pool-minus-self onto pool indices.
            index = pick
            if own_index is not None and index >= own_index:
                index += 1
            if not self.params.batch_values:
                key = (
                    keys[sampler.index(len(keys))]
                    if self.params.independent_values
                    else chosen
                )
                payload = GossipValue(self.phase, key, self.known[key])
                size = payload.wire_size()
            ctx.send(pool[index], payload, size=size)

    def _values_fully_cover(self) -> bool:
        """Whether every known child value covers its whole subtree.

        Guards the early bump against locking in a *partial* child
        aggregate (produced by a peer that timed out) when a complete
        version may still arrive before this phase's timeout.  Only
        decidable with a complete view; phase-1 values are single votes
        and are always full.
        """
        if self.phase == 1 or not self._complete_view:
            return True
        members_in = self.assignment.members_in_subtree
        return all(
            state.covers() >= len(members_in(key))
            for key, state in self.known.items()
        )

    def _phase_complete(self, ctx: Context) -> bool:
        # The final phase ends only at the global deadline (see
        # :meth:`_deadline_reached`): there is no next phase to hurry to,
        # and staying keeps serving values to stragglers.
        if self.phase >= self.num_phases:
            return self._deadline_reached(ctx)
        # Early bump-up (step II(b)) for intermediate phases.  The length
        # comparison is a necessary condition for the superset check and
        # skips the frozenset comparison on the common still-waiting case.
        if self.params.early_bump:
            expected = self._expected_keys(self.phase)
            if (
                len(self.known) >= len(expected)
                and self.known.keys() >= expected
                and self._values_fully_cover()
            ):
                return True
        if self.phase_rounds < self.rounds_per_phase + self._phase_extension:
            return False
        # Timeout hit: adaptive deadlines may grant bounded extra rounds
        # instead of locking in a partial compose under heavy loss.
        return not self._maybe_extend()

    def _compose_known(self, ctx: Context) -> AggregateState:
        """Compose the current phase's known values into one aggregate.

        Under the runtime sanitizer (:mod:`repro.sanitize`) the held
        values are checked before the merge fold — a double count or
        count-channel drift is reported with this member, round and
        phase — and the composed state after it, for mass conservation
        against the run's ground-truth votes.
        """
        held = list(self.known.values())
        if sanitize.ACTIVE:
            sanitize.check_held(self, ctx.round, self.phase, held)
        composed = self.function.merge_all(held)
        if sanitize.ACTIVE:
            sanitize.check_compose(self, ctx.round, self.phase, composed)
        return composed

    def _maybe_advance(self, ctx: Context) -> None:
        """Step II(b): compose and bump up, cascading if buffers allow.
        The array stepper advances its rows by the same rule in columns
        (``tests/property/test_columnar_advance.py`` ties the two)."""
        while self.result is None and self._phase_complete(ctx):
            self._emit_bump(ctx)
            composed = self._compose_known(ctx)
            completed_subtree = self.assignment.subtree_of(
                self.node_id, self.phase
            )
            if sanitize.ACTIVE:
                sanitize.check_phase_bump(
                    self, ctx.round, self.phase, self.phase + 1
                )
            self.phase += 1
            self.phase_rounds = 0
            self._phase_extension = 0
            if self.phase > self.num_phases:
                # Graceful degradation: the estimate is reported together
                # with the fraction of the group it demonstrably covers,
                # so a timeout-truncated run under-counts *loudly* —
                # consumers can weigh or reject partial aggregates instead
                # of mistaking them for complete ones.
                self.result = composed
                self.coverage_fraction = composed.covers() / max(
                    1, len(self.assignment.member_ids)
                )
                self._emit_finalize(ctx)
                ctx.terminate()
                return
            self.known = {completed_subtree: composed}
            self._known_version += 1
            buffered = self._future.pop(self.phase, None)
            if buffered:
                self.absorb_payloads(
                    (GossipBatch(self.phase, tuple(buffered.items())),),
                    ctx.round,
                )
            self._phase_received = 0  # the flush above is no delivery
            self._emit_phase_enter(ctx)


class GroupMember:
    """One member of a :class:`GossipGroup`, read off the group's columns.

    ``node_id``, ``function`` and ``assignment`` come from the spec;
    ``result``, ``coverage_fraction``, ``phase``, ``alive`` and
    ``terminated`` from the columns the array engine writes (their
    start values until a run binds them).  The array engine admits by
    structure alone and refuses nothing, so ``refused`` is 0.
    """

    __slots__ = ("group", "row")

    refused = 0

    def __init__(self, group: GossipGroup, row: int):
        self.group = group
        self.row = row

    @property
    def node_id(self) -> int:
        return self.group.member_ids[self.row]

    @property
    def function(self) -> AggregateFunction:
        return self.group.function

    @property
    def assignment(self) -> GridAssignment:
        return self.group.assignment

    @property
    def result(self) -> AggregateState | None:
        state = int(self.group.result_ids[self.row])
        return self.group.states[state] if state else None

    @property
    def coverage_fraction(self) -> float | None:
        coverage = float(self.group.coverage[self.row])
        return None if math.isnan(coverage) else coverage

    @property
    def phase(self) -> int:
        return int(self.group.phase[self.row])

    @property
    def alive(self) -> bool:
        return bool(self.group.alive[self.row])

    @property
    def terminated(self) -> bool:
        return bool(self.group.terminated[self.row])

    def covered_ids(self, mask: IntervalMask) -> list[int]:
        """Member ids behind ``mask``'s ranks (:func:`covered_ids`)."""
        return covered_ids(self.group.assignment, mask)


class GossipGroup(Sequence):
    """One hierarchical-gossip group as a spec of columns.

    The spec is what every member's process would be built from: the
    member ids and a vote column (registration order), the start-round
    column, the views (``views``, one tuple per member, or ``None``
    when every member sees the whole group: one shared tuple, ``view``)
    and the shared params, assignment, aggregate and phase sink.  Next
    to it are the columns a run writes — ``alive``, ``terminated``,
    ``phase``, ``result_ids`` (ids into the columnar state table
    ``states``, a :class:`~repro.core.aggregates.StateTable`; 0 = no
    result) and ``coverage`` (NaN until finalized).  The array engine
    binds them directly and builds no process.  The object engine
    materialises one :class:`HierarchicalGossipProcess` per member
    (:meth:`materialize`), and the group's items are then those
    processes.  Until then an item is a :class:`GroupMember` view.
    """

    def __init__(
        self,
        votes: dict[int, float],
        function: AggregateFunction,
        assignment: GridAssignment,
        params: GossipParams,
        views: list[tuple[int, ...]] | None,
        start_rounds: np.ndarray,
        phase_sink: PhaseSink | None,
    ):
        self.member_ids = tuple(votes)
        self.votes = tuple(votes.values())
        self.function = function
        self.assignment = assignment
        self.params = params
        self.phase_sink = phase_sink
        self.rounds_per_phase = params.resolve_rounds(
            assignment.hierarchy.group_size
        )
        self.view = self.member_ids
        self.views = views
        self.start_rounds = start_rounds
        count = len(self.member_ids)
        self.alive = np.ones(count, dtype=bool)
        self.terminated = np.zeros(count, dtype=bool)
        self.phase = np.ones(count, dtype=np.int64)
        self.result_ids = np.zeros(count, dtype=np.int64)
        self.coverage = np.full(count, np.nan)
        self.states = StateTable(function)
        self.processes: list[HierarchicalGossipProcess] | None = None

    @property
    def num_phases(self) -> int:
        return self.assignment.hierarchy.num_phases

    def __len__(self) -> int:
        return len(self.member_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        row = range(len(self))[index]
        if self.processes is not None:
            return self.processes[row]
        return GroupMember(self, row)

    def __iter__(self) -> Iterator:
        if self.processes is not None:
            return iter(self.processes)
        return (GroupMember(self, row) for row in range(len(self)))

    def view_of(self, row: int) -> tuple[int, ...]:
        return self.view if self.views is None else self.views[row]

    def complete_views(self) -> np.ndarray:
        """Per member: whether its view is the whole membership (views
        are subsets of it, so a view as large is complete)."""
        members = len(self.assignment.member_ids)
        if self.views is None:
            return np.full(len(self), len(self.view) >= members)
        return np.fromiter(
            (len(view) >= members for view in self.views),
            dtype=bool, count=len(self),
        )

    def materialize(self) -> list[HierarchicalGossipProcess]:
        """One process per member, built from the spec once; the group's
        items are these processes from then on."""
        if self.processes is None:
            self.processes = [
                HierarchicalGossipProcess(
                    node_id=member_id,
                    vote=vote,
                    function=self.function,
                    assignment=self.assignment,
                    view=self.view_of(row),
                    params=self.params,
                    start_round=start,
                    phase_sink=self.phase_sink,
                )
                for row, (member_id, vote, start) in enumerate(zip(
                    self.member_ids, self.votes, self.start_rounds.tolist()
                ))
            ]
        return self.processes

    def columns(self) -> MemberColumns:
        """The members as the measurements read them: the processes'
        attributes once materialised, else the group's own columns."""
        if self.processes is not None:
            return MemberColumns.of(self.processes)
        return MemberColumns(
            ids=self.member_ids,
            slots=np.fromiter(
                map(self.assignment.rank_of, self.member_ids),
                dtype=np.int64, count=len(self),
            ),
            alive=self.alive,
            result=self.result_ids,
            states=self.states,
            coverage=self.coverage,
            function=self.function,
        )


def build_hierarchical_gossip_group(
    votes: dict[int, float],
    function: AggregateFunction,
    assignment: GridAssignment,
    params: GossipParams | None = None,
    view_of: Callable[[int], Iterable[int]] | None = None,
    start_round_of: Callable[[int], int] | None = None,
    phase_sink: PhaseSink | None = None,
) -> GossipGroup:
    """The group's spec (:class:`GossipGroup`); no process is built.

    ``view_of`` defaults to complete views (every member sees the whole
    vote map's ids), the paper's simulation setting.  ``start_round_of``
    models multicast-wave initiation: per-member start delays (default:
    everyone starts at round 0, the paper's simultaneous start).
    ``phase_sink`` is shared by all members (protocol-phase tracing, see
    :mod:`repro.core.observe`); ``None`` emits nothing.
    """
    params = params if params is not None else GossipParams()
    member_ids = tuple(votes)
    if len(member_ids) > 1 and params.fanout_m > len(member_ids):
        raise ValueError(
            f"gossip fanout M={params.fanout_m} exceeds the group size "
            f"({len(member_ids)} members); a member cannot contact more "
            f"distinct gossipees than exist — lower fanout_m or grow the "
            f"group"
        )
    views = None
    if view_of is not None:
        views = [tuple(view_of(member)) for member in member_ids]
    starts = np.zeros(len(member_ids), dtype=np.int64)
    if start_round_of is not None:
        starts[:] = [start_round_of(member) for member in member_ids]
    return GossipGroup(
        votes, function, assignment, params, views, starts, phase_sink
    )
