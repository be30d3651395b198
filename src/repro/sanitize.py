"""Runtime aggregation sanitizer: the dynamic half of ``repro lint``.

The static rules (:mod:`repro.lint`) catch nondeterminism *sources*; this
module catches *invariant violations while they happen*, with a
structured report naming the offending member, round and phase:

* **Membership-mask disjointness** — every
  :meth:`repro.core.aggregates.AggregateFunction.merge` is intercepted
  and re-checked before the merge runs; an overlap raises
  :class:`DoubleCountViolation` (a subclass of both
  :class:`SanitizerError` and the protocol's own
  :class:`~repro.core.aggregates.DoubleCountError`) carrying the
  composing member / round / phase when a compose is in progress.
  This is the paper's Section 2 no-double-counting constraint, enforced
  mechanically (the premise of Theorem 1's ``1 - 1/N`` bound).
* **Count-channel conservation** — for count-bearing aggregates
  (count, average, mean_variance, histogram) the payload's count channel
  must equal the membership mask's size at every merge: a state claiming
  more votes than its mask covers is a smuggled double count, one
  claiming fewer is vote loss mislabeled as coverage.
* **Mass conservation** — at every phase compose, the payload of
  sum-like aggregates is re-derived from the run's ground-truth votes
  over exactly the members the state's mask covers (the flow-updating /
  mass-distribution correctness lens of Almeida et al.); a mismatch
  beyond float-fold tolerance means votes were altered, duplicated or
  fabricated in flight.
* **Monotone phase clock** — members may only advance ``phase -> phase+1``
  and never move backwards or skip, mirroring the bump-up rule II(b).

Enabled by ``REPRO_SANITIZE=1`` in the environment (read once at import)
or :func:`enable`; the test suite turns it on by default (see
``tests/conftest.py``).  When disabled the hooks cost one module-level
attribute check per compose and nothing per merge.

The sanitizer draws no randomness and mutates no simulation state, so
enabling it never changes results — byte-determinism across ``--jobs``
counts is preserved.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
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
    "composing",
    "check_compose",
    "check_phase_bump",
    "set_adversary",
    "clear_adversary",
    "detections",
    "clear_detections",
]

#: Fast-path flag: hook sites test this before doing any work.
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
#: (member, round, phase, slot -> member-id translation) of the compose
#: in progress, for merge reports.
_COMPOSE_CONTEXT: tuple[int, int, int, Callable | None] | None = None
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
    """Turn the sanitizer on (idempotent) and bind the merge hook."""
    global ACTIVE
    from repro.core import aggregates

    aggregates._SANITIZE_HOOK = _on_merge
    ACTIVE = True
    _rebind_screen()


def disable() -> None:
    """Turn the sanitizer off and unbind the merge hook."""
    global ACTIVE, _GROUND_TRUTH, _COMPOSE_CONTEXT
    from repro.core import aggregates

    aggregates._SANITIZE_HOOK = None
    ACTIVE = False
    _GROUND_TRUTH = None
    _COMPOSE_CONTEXT = None
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

    Mass-conservation and foreign-member checks are only possible while
    a ground truth is installed; :func:`run_once
    <repro.experiments.runner.run_once>` installs it for every run when
    the sanitizer is active.  Checks degrade gracefully (mask-only)
    without one.
    """
    global _GROUND_TRUTH
    _GROUND_TRUTH = (dict(votes), function)


def end_run() -> None:
    global _GROUND_TRUTH
    _GROUND_TRUTH = None


@contextmanager
def composing(
    member: int, round_number: int, phase: int,
    covered_ids: Callable[[IntervalMask], list[int]] | None = None,
) -> Iterator[None]:
    """Attribute merge-level violations to a member/round/phase.

    ``covered_ids`` is the composing process's slot-to-member-id
    translation (``AggregationProcess.covered_ids``), so a double count
    is reported by member id; without it slots are reported as they are.
    """
    global _COMPOSE_CONTEXT
    previous = _COMPOSE_CONTEXT
    _COMPOSE_CONTEXT = (member, round_number, phase, covered_ids)
    try:
        yield
    finally:
        _COMPOSE_CONTEXT = previous


def _located(kind: str, detail: str) -> SanitizerViolation:
    member, round_number, phase, __ = _COMPOSE_CONTEXT or (None,) * 4
    return SanitizerViolation(
        kind=kind, detail=detail, member=member, round=round_number,
        phase=phase,
    )


# -- merge-level checks (bound into AggregateFunction.merge) ------------
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


def _on_merge(
    function: AggregateFunction, a: AggregateState, b: AggregateState
) -> None:
    """Pre-merge invariant checks (installed as the aggregates hook)."""
    overlap = a.members & b.members
    if overlap:
        covered_ids = _COMPOSE_CONTEXT[3] if _COMPOSE_CONTEXT else None
        twice = sorted(covered_ids(overlap) if covered_ids else overlap)
        raise DoubleCountViolation(_located(
            "double-count",
            f"{function.name}: members {twice[:5]} appear in "
            f"both merge operands — some vote would be counted twice "
            f"(Section 2 no-double-counting violation)",
        ))
    for state in (a, b):
        counted = _count_channel(function, state)
        if counted is not None and counted != state.covers():
            raise SanitizerError(_located(
                "count-channel",
                f"{function.name}: payload counts {counted} vote(s) but "
                f"the membership mask covers {state.covers()} — counts "
                f"and mask drifted apart (double count or vote loss)",
            ))


# -- compose/phase checks (called from the gossip protocol) -------------
def _covered_ids(process, state: AggregateState) -> list[int]:
    """Ids of the members ``state`` covers, translated by ``process``.

    Masks hold vote slots; which member a slot stands for is the
    protocol's choice (``AggregationProcess.covered_ids``: hierarchy
    rank for hierarchical gossip, the id itself elsewhere — also the
    fallback for stand-in processes that do not say).
    """
    covered_ids = getattr(process, "covered_ids", None)
    return covered_ids(state.members) if covered_ids else list(state.members)


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


def check_compose(
    process, round_number: int, phase: int, state: AggregateState
) -> None:
    """Validate a freshly composed aggregate against the ground truth.

    ``process`` is the composing protocol process (supplies member id
    and, for the foreign-member fallback, the grid assignment).
    """
    member = process.node_id
    function: AggregateFunction = process.function
    covered = _covered_ids(process, state)
    if _GROUND_TRUTH is not None:
        votes, __ = _GROUND_TRUTH
        foreign = sorted(m for m in covered if m not in votes)
    else:
        votes = None
        known = getattr(
            getattr(process, "assignment", None), "member_ids", None
        )
        foreign = (
            sorted(m for m in covered if m not in known)
            if known is not None else []
        )
    if foreign:
        raise SanitizerError(SanitizerViolation(
            kind="foreign-member",
            detail=(
                f"{function.name}: composed mask includes ids "
                f"{foreign[:5]} that are not members of this run — "
                f"fabricated or cross-run votes"
            ),
            member=member, round=round_number, phase=phase,
        ))
    if votes is None:
        return
    expected = _expected_mass(function, covered, votes)
    if expected is not None and _mass_mismatch(expected, state.payload):
        raise SanitizerError(SanitizerViolation(
            kind="mass-conservation",
            detail=(
                f"{function.name}: composed payload {state.payload!r} "
                f"!= ground-truth recomputation {expected!r} over the "
                f"{state.covers()} covered vote(s) — votes were altered, "
                f"duplicated or fabricated in flight"
            ),
            member=member, round=round_number, phase=phase,
        ))


def check_phase_bump(
    process, round_number: int, from_phase: int, to_phase: int
) -> None:
    """Assert the member's phase clock only ever steps forward by one."""
    last = getattr(process, "_sanitize_phase_clock", from_phase)
    if to_phase != from_phase + 1 or from_phase != last:
        raise SanitizerError(SanitizerViolation(
            kind="phase-clock",
            detail=(
                f"phase clock must step monotonically by one "
                f"(last composed phase {last}, now bumping "
                f"{from_phase} -> {to_phase})"
            ),
            member=process.node_id, round=round_number, phase=from_phase,
        ))
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
    process, member: int, round_number: int, phase: int, key,
    state: AggregateState,
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
    covered = _covered_ids(process, state)
    if universe is not None:
        foreign = sorted(m for m in covered if m not in universe)
        if foreign:
            return ForgedContribution(SanitizerViolation(
                kind="foreign-member",
                detail=(
                    f"{function.name}: arriving contribution covers ids "
                    f"{foreign[:5]} that are not members of this run — "
                    f"Sybil or fabricated votes"
                ),
                member=member, round=round_number, phase=phase,
            ))
    claimed = _claimed_members(process, key)
    if claimed is not None and not claimed.issuperset(covered):
        extras = sorted(set(covered) - claimed)
        return DoubleCountViolation(SanitizerViolation(
            kind="double-count",
            detail=(
                f"{function.name}: contribution keyed {key!r} covers "
                f"members {extras[:5]} outside that key's legitimate set "
                f"— admitting it would count their votes under two keys"
            ),
            member=member, round=round_number, phase=phase,
        ))
    counted = _count_channel(function, state)
    if counted is not None and counted != state.covers():
        return ForgedContribution(SanitizerViolation(
            kind="count-channel",
            detail=(
                f"{function.name}: arriving payload counts {counted} "
                f"vote(s) but its membership mask covers "
                f"{state.covers()} — forged or corrupted in flight"
            ),
            member=member, round=round_number, phase=phase,
        ))
    if votes is not None:
        expected = _expected_mass(function, covered, votes)
        if expected is not None and _mass_mismatch(expected, state.payload):
            return ForgedContribution(SanitizerViolation(
                kind="mass-conservation",
                detail=(
                    f"{function.name}: arriving payload {state.payload!r} "
                    f"!= ground-truth recomputation {expected!r} over its "
                    f"{state.covers()} covered vote(s) — tampered in "
                    f"flight"
                ),
                member=member, round=round_number, phase=phase,
            ))
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
    violation = _screen_violation(
        process, process.node_id, round_number, phase, key, state
    )
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
