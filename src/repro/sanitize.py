"""Runtime aggregation sanitizer: the dynamic half of ``repro lint``.

The static rules (:mod:`repro.lint`) catch nondeterminism *sources*; this
module catches *invariant violations while they happen*, with a
structured report naming the offending member, round and phase.  Both
engines call its checks at every phase bump, beside the compose they run
anyway (``merge_all``, the array stepper's column fold) and never in its
place, so a sanitized run takes the unsanitized code path:

* :func:`check_held`, before the compose — every held mask lies inside
  the member's phase subtree rank range (a foreign or Sybil vote lies
  outside); the masks are pairwise disjoint, else
  :class:`DoubleCountViolation` (also the protocol's own
  :class:`~repro.core.aggregates.DoubleCountError`) names the ids
  counted twice — the paper's Section 2 no-double-counting constraint,
  the premise of Theorem 1's ``1 - 1/N`` bound; and a count-bearing
  payload (count, average, mean_variance, histogram) counts exactly its
  mask's votes: more is a smuggled double count, fewer is vote loss
  mislabeled as coverage.
* :func:`check_compose`, after it — **mass conservation**: a sum-like
  composed payload is re-derived from the run's ground-truth votes over
  exactly the members its mask covers (the flow-updating /
  mass-distribution lens of Almeida et al.); a mismatch beyond
  float-fold tolerance means votes were altered, duplicated or
  fabricated in flight.
* :func:`check_phase_bump` — the **phase clock** steps ``phase ->
  phase+1`` only, mirroring the bump-up rule II(b).

With an adversary registered the admission screen :data:`SCREEN` also
inspects every arriving contribution and scores detections.

Enabled by ``REPRO_SANITIZE=1`` in the environment (read once at import)
or :func:`enable`; the test suite turns it on by default (see
``tests/conftest.py``).  When disabled a call site costs one module
attribute check per compose.  The sanitizer draws no randomness and
mutates no simulation state, so enabling it never changes results.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.aggregates import (
    AggregateFunction,
    AggregateState,
    DoubleCountError,
)
from repro.core.gridbox import SubtreeId
from repro.core.intervals import IntervalMask

__all__ = [
    "SanitizerViolation",
    "SanitizerError",
    "DoubleCountViolation",
    "ForgedContribution",
    "enable",
    "disable",
    "enabled",
    "begin_run",
    "end_run",
    "check_held",
    "check_compose",
    "check_phase_bump",
    "set_adversary",
    "clear_adversary",
    "detections",
    "clear_detections",
]

#: Fast-path flag: call sites test this before doing any work.
ACTIVE = False

#: Relative tolerance for float mass checks (merges fold in gossip order,
#: ground truth in dict order — last-bit drift is expected, mass loss is
#: not).
MASS_RTOL = 1e-6


@dataclass(frozen=True)
class SanitizerViolation:
    """One invariant violation, located in protocol space-time."""

    kind: str                #: "double-count" | "count-channel" |
                             #: "mass-conservation" | "foreign-member" |
                             #: "phase-clock"
    detail: str              #: Human-readable specifics.
    member: int | None = None  #: Offending member id (composer/owner).
    round: int | None = None   #: Simulation round of the violation.
    phase: int | None = None   #: Protocol phase of the violation.

    def report(self) -> str:
        where = ", ".join(
            f"{label} {value}"
            for label, value in (
                ("member", self.member),
                ("round", self.round),
                ("phase", self.phase),
            )
            if value is not None
        )
        prefix = f"REPRO-SANITIZE {self.kind}"
        return f"{prefix} [{where}]: {self.detail}" if where else (
            f"{prefix}: {self.detail}"
        )


class SanitizerError(AssertionError):
    """An aggregation invariant was violated at runtime."""

    def __init__(self, violation: SanitizerViolation):
        super().__init__(violation.report())
        self.violation = violation


class DoubleCountViolation(SanitizerError, DoubleCountError):
    """Double count caught by the sanitizer.

    Also a :class:`~repro.core.aggregates.DoubleCountError`, so code and
    tests expecting the protocol's own exception keep working when the
    sanitizer intercepts the merge first.
    """


class ForgedContribution(SanitizerError):
    """A contribution whose content cannot be genuine.

    Raised/recorded by the adversarial detection oracle when an arriving
    contribution fails a check other than mask disjointness: a mask
    naming ids that are not members of this run (Sybil votes), a count
    channel disagreeing with the mask, or a payload that fails
    ground-truth mass recomputation (tampered values).
    """


# -- run-scoped state ---------------------------------------------------
#: Ground truth of the current run: (votes, function), set by begin_run.
_GROUND_TRUTH: tuple[Mapping[int, float], AggregateFunction] | None = None
#: The run's :class:`~repro.chaos.adversary.TamperPlanner` (detection
#: scoring ground truth), set by :func:`set_adversary`.
_ADVERSARY: Any = None
#: Attributed detections of the current run, in arrival order.
_DETECTIONS: list[SanitizerError] = []

#: The admission-screening hook protocol processes consult before
#: accepting an arriving contribution:
#: ``SCREEN(process, round, phase, key, state) -> bool`` (False =
#: quarantine).  Bound only while the sanitizer is active *and* an
#: adversary is registered — ``None`` otherwise, so benign runs pay one
#: attribute read per payload and the sanitizer still never changes the
#: results of a run it merely watches.
SCREEN: Callable[..., bool] | None = None


def enabled() -> bool:
    return ACTIVE


def enable() -> None:
    """Turn the sanitizer on (idempotent)."""
    global ACTIVE
    ACTIVE = True
    _rebind_screen()


def disable() -> None:
    """Turn the sanitizer off and drop the run's ground truth."""
    global ACTIVE, _GROUND_TRUTH
    ACTIVE = False
    _GROUND_TRUTH = None
    _rebind_screen()


def _rebind_screen() -> None:
    global SCREEN
    SCREEN = (
        _screen_contribution if ACTIVE and _ADVERSARY is not None else None
    )


def set_adversary(planner) -> None:
    """Register the run's tamper planner as detection ground truth.

    Arms the :data:`SCREEN` admission hook (when the sanitizer is
    active): every contribution a protocol process is about to admit is
    screened first, violations are recorded as attributed detections,
    and the planner is told which of its planted states reached the
    oracle and which were caught.  Passing ``None`` (or calling
    :func:`clear_adversary`) disarms the hook.
    """
    global _ADVERSARY
    _ADVERSARY = planner
    clear_detections()
    _rebind_screen()


def clear_adversary() -> None:
    """Disarm the screen, keeping recorded detections inspectable.

    Unlike :func:`set_adversary`, the detection log survives — callers
    (tests, the matrix harness) read attribution after the run ends.
    """
    global _ADVERSARY
    _ADVERSARY = None
    _rebind_screen()


def detections() -> tuple[SanitizerError, ...]:
    """Attributed detections recorded since the adversary was set."""
    return tuple(_DETECTIONS)


def clear_detections() -> None:
    _DETECTIONS.clear()


def begin_run(
    votes: Mapping[int, float], function: AggregateFunction
) -> None:
    """Install the ground truth of one run (member -> vote).

    The mass-conservation checks need it, and the screen takes its
    votes as the run's membership; :func:`run_once
    <repro.experiments.runner.run_once>` installs it for every run when
    the sanitizer is active.  Without one, :func:`check_compose` checks
    nothing.
    """
    global _GROUND_TRUTH
    _GROUND_TRUTH = (dict(votes), function)


def end_run() -> None:
    global _GROUND_TRUTH
    _GROUND_TRUTH = None


# -- compose/phase checks (called by both engines at every bump) --------
def _count_channel(
    function: AggregateFunction, state: AggregateState
) -> int | None:
    """The payload's vote count for count-bearing aggregates, else None."""
    name = function.name
    payload = state.payload
    if name == "count":
        return int(payload)
    if name == "average":
        return int(payload[1])
    if name == "mean_variance":
        return int(payload[0])
    if name == "histogram":
        return int(sum(payload))
    return None


def _violation(
    error: type[SanitizerError], process, round_number: int, phase: int,
    kind: str, detail: str,
) -> SanitizerError:
    """``error`` for a violation of ``process``'s member at ``round`` and
    ``phase``."""
    return error(SanitizerViolation(
        kind=kind, detail=detail, member=process.node_id,
        round=round_number, phase=phase,
    ))


def _expected_mass(
    function: AggregateFunction,
    members: list[int],
    votes: Mapping[int, float],
):
    """Ground-truth payload for sum-like aggregates, else None."""
    name = function.name
    if name == "sum":
        return math.fsum(votes[m] for m in members)
    if name == "average":
        return (math.fsum(votes[m] for m in members), len(members))
    if name == "min":
        return min(votes[m] for m in members)
    if name == "max":
        return max(votes[m] for m in members)
    if name == "bounds":
        return (min(votes[m] for m in members),
                max(votes[m] for m in members))
    if name == "count":
        return len(members)
    return None


def _mass_mismatch(expected, actual) -> bool:
    if isinstance(expected, tuple):
        return len(expected) != len(actual) or any(
            _mass_mismatch(e, a) for e, a in zip(expected, actual)
        )
    if isinstance(expected, int):
        return expected != actual
    return abs(actual - expected) > MASS_RTOL * max(1.0, abs(expected))


def check_held(
    process, round_number: int, phase: int, held: Sequence[AggregateState]
) -> None:
    """Validate the values ``process`` is about to compose at a bump.

    Every mask must lie inside the member's phase-``phase`` subtree rank
    range, the masks must be pairwise disjoint, and a count channel must
    count exactly its mask's votes.  ``process`` is the composing
    hierarchical-gossip member: its id, assignment and rank-to-id
    translation locate and name the offence.
    """
    name = process.function.name
    assignment = process.assignment
    ranks = assignment.subtree_rank_range(
        assignment.subtree_of(process.node_id, phase)
    )
    union = None
    for state in held:
        mask = state.members
        bounds = mask.bounds
        if bounds and (bounds[0] < ranks.start or bounds[-1] >= ranks.stop):
            outside = process.covered_ids(
                IntervalMask(slot for slot in mask if slot not in ranks)
            )
            raise _violation(
                SanitizerError, process, round_number, phase,
                "foreign-member",
                f"{name}: a held value covers ids {outside[:5]} outside "
                f"this member's phase-{phase} subtree — foreign, Sybil or "
                f"misplaced votes",
            )
        merged = mask if union is None else union.union_disjoint(mask)
        if merged is None:
            twice = sorted(process.covered_ids(union & mask))
            raise _violation(
                DoubleCountViolation, process, round_number, phase,
                "double-count",
                f"{name}: members {twice[:5]} appear in two held values — "
                f"some vote would be counted twice (Section 2 "
                f"no-double-counting violation)",
            )
        union = merged
        counted = _count_channel(process.function, state)
        if counted is not None and counted != mask.count:
            raise _violation(
                SanitizerError, process, round_number, phase,
                "count-channel",
                f"{name}: a held payload counts {counted} vote(s) but its "
                f"membership mask covers {mask.count} — counts and mask "
                f"drifted apart (double count or vote loss)",
            )


def check_compose(
    process, round_number: int, phase: int, state: AggregateState
) -> None:
    """Validate a freshly composed aggregate against the ground truth:
    its payload must be the one the run's votes give over exactly the
    members its mask covers.  ``process`` is the composing process (its
    id and rank-to-id translation); without an installed ground truth
    (:func:`begin_run`) nothing is checked."""
    if _GROUND_TRUTH is None:
        return
    votes, __ = _GROUND_TRUTH
    function: AggregateFunction = process.function
    covered = process.covered_ids(state.members)
    expected = _expected_mass(function, covered, votes)
    if expected is not None and _mass_mismatch(expected, state.payload):
        raise _violation(
            SanitizerError, process, round_number, phase,
            "mass-conservation",
            f"{function.name}: composed payload {state.payload!r} != "
            f"ground-truth recomputation {expected!r} over the "
            f"{state.covers()} covered vote(s) — votes were altered, "
            f"duplicated or fabricated in flight",
        )


def check_phase_bump(
    process, round_number: int, from_phase: int, to_phase: int
) -> None:
    """Assert the member's phase clock only ever steps forward by one."""
    last = getattr(process, "_sanitize_phase_clock", from_phase)
    if to_phase != from_phase + 1 or from_phase != last:
        raise _violation(
            SanitizerError, process, round_number, from_phase,
            "phase-clock",
            f"phase clock must step monotonically by one (last composed "
            f"phase {last}, now bumping {from_phase} -> {to_phase})",
        )
    process._sanitize_phase_clock = to_phase


# -- adversarial admission screening (the detection oracle) --------------
def _claimed_members(process, key) -> frozenset[int] | None:
    """The member set a contribution keyed ``key`` may legitimately cover.

    Phase-1 contributions (and baseline vote reports) are keyed by the
    *owning member id*; subtree aggregates are keyed by a
    :class:`~repro.core.gridbox.SubtreeId` and may cover exactly that
    subtree's members (a longer-than-``digits`` prefix is a pseudo member
    key — the leader-election baseline's per-node children).  ``None``
    when the key carries no coverage claim this process can check.
    """
    if isinstance(key, int):
        return frozenset((key,))
    if isinstance(key, SubtreeId):
        assignment = getattr(process, "assignment", None)
        if assignment is None:
            return None
        if key.prefix_length > assignment.hierarchy.digits:
            return frozenset((key.prefix_value,))
        return frozenset(assignment.members_in_subtree(key))
    return None


def _screen_violation(
    process, round_number: int, phase: int, key, state: AggregateState,
) -> SanitizerError | None:
    """The violation an arriving contribution commits, or None if clean."""
    function: AggregateFunction = process.function
    if _GROUND_TRUTH is not None:
        votes, __ = _GROUND_TRUTH
        universe = votes
    else:
        votes = None
        universe = getattr(
            getattr(process, "assignment", None), "member_ids", None
        )
    covered = process.covered_ids(state.members)
    if universe is not None:
        foreign = sorted(m for m in covered if m not in universe)
        if foreign:
            return _violation(
                ForgedContribution, process, round_number, phase,
                "foreign-member",
                f"{function.name}: arriving contribution covers ids "
                f"{foreign[:5]} that are not members of this run — "
                f"Sybil or fabricated votes",
            )
    claimed = _claimed_members(process, key)
    if claimed is not None and not claimed.issuperset(covered):
        extras = sorted(set(covered) - claimed)
        return _violation(
            DoubleCountViolation, process, round_number, phase,
            "double-count",
            f"{function.name}: contribution keyed {key!r} covers "
            f"members {extras[:5]} outside that key's legitimate set "
            f"— admitting it would count their votes under two keys",
        )
    counted = _count_channel(function, state)
    if counted is not None and counted != state.covers():
        return _violation(
            ForgedContribution, process, round_number, phase,
            "count-channel",
            f"{function.name}: arriving payload counts {counted} "
            f"vote(s) but its membership mask covers "
            f"{state.covers()} — forged or corrupted in flight",
        )
    if votes is not None:
        expected = _expected_mass(function, covered, votes)
        if expected is not None and _mass_mismatch(expected, state.payload):
            return _violation(
                ForgedContribution, process, round_number, phase,
                "mass-conservation",
                f"{function.name}: arriving payload {state.payload!r} "
                f"!= ground-truth recomputation {expected!r} over its "
                f"{state.covers()} covered vote(s) — tampered in "
                f"flight",
            )
    return None


def _screen_contribution(
    process, round_number: int, phase: int, key, state: AggregateState
) -> bool:
    """Admission screen (bound as :data:`SCREEN`): False = quarantine.

    Records every violation as an attributed detection and scores the
    registered adversary's ground truth: planted states are marked
    *reached* when they arrive here and *detected* when caught; a
    detection on a state the adversary never planted counts as a false
    positive.  The contribution is quarantined (dropped before merge),
    so adversarial campaigns measure detection instead of crashing on
    the first forged merge.
    """
    planner = _ADVERSARY
    planted = planner.planted_mode(state) if planner is not None else None
    if planted is not None:
        planner.note_reached(state)
    violation = _screen_violation(process, round_number, phase, key, state)
    if violation is None:
        return True
    _DETECTIONS.append(violation)
    if planner is not None:
        if planted is not None:
            planner.note_detected(state)
        else:
            planner.note_false_positive()
    return False


# The one environment read in deterministic code: it switches checks on,
# and a run's results are bit-identical with them on or off.
if os.environ.get("REPRO_SANITIZE", "").strip().lower() in (  # repro-lint: ok[REP002]
    "1", "true", "on", "yes",
):
    enable()
