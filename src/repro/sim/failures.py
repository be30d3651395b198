"""Crash-failure injection models.

The paper's simulations crash each member independently with probability
``pf`` per gossip round, *without recovery* (Section 7).  The model section
(Section 2) allows arbitrary crash *and recovery*, so a crash-recovery
model is provided as well for the extension experiments.

A failure model is stepped once per round by the engine and returns the
sets of node ids to crash and to recover this round.  Correlated crash
processes (storms, rack wipes, churn) are chaos campaign events:
:class:`repro.chaos.campaign.CampaignFailureModel` layers them over the
paper's independent process in one model.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FailureModel",
    "NoFailures",
    "CrashWithoutRecovery",
    "CrashRecovery",
    "ScheduledFailures",
]


class FailureModel:
    """Base class: decide who crashes / recovers at each round."""

    #: Whether crashed members may come back.  The engine uses this to
    #: decide if a fully crashed-or-terminated group can still make
    #: progress (models that recover keep the run alive to its horizon).
    may_recover = False

    #: Whether this model provably never crashes or recovers anyone.
    #: The engine skips the per-round liveness scans (and the ``step``
    #: call) entirely for null models; a null model must not consume
    #: randomness, so skipping it is stream-identical.
    is_null = False

    def step(
        self,
        round_number: int,
        alive_ids: Sequence[int],
        crashed_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> tuple[set[int], set[int]]:
        """Return ``(to_crash, to_recover)`` for this round."""
        return set(), set()


def _drawn(ids: Sequence[int], draws: np.ndarray, p: float) -> set[int]:
    """The ids whose draw (``draws[i]`` is ``ids[i]``'s) is below ``p``."""
    return {ids[i] for i in np.flatnonzero(draws < p).tolist()}


class NoFailures(FailureModel):
    """Fail-free group (used for correctness tests and Figure 11)."""

    is_null = True


class CrashWithoutRecovery(FailureModel):
    """Paper's model: each live member crashes w.p. ``pf`` each round."""

    def __init__(self, pf: float):
        if not 0.0 <= pf <= 1.0:
            raise ValueError(f"pf must be a probability, got {pf}")
        self.pf = pf

    def step(self, round_number, alive_ids, crashed_ids, rng):
        if self.pf == 0.0 or not alive_ids:
            return set(), set()
        return _drawn(alive_ids, rng.random(len(alive_ids)), self.pf), set()


class CrashRecovery(CrashWithoutRecovery):
    """Crash w.p. ``pf``; each crashed member recovers w.p. ``pr`` per round.

    Recovery models a rebooting sensor: the process resumes with the
    state it crashed with (no amnesia, matching a persisted vote).
    """

    def __init__(self, pf: float, pr: float):
        super().__init__(pf)
        if not 0.0 <= pr <= 1.0:
            raise ValueError(f"pr must be a probability, got {pr}")
        self.pr = pr
        self.may_recover = pr > 0.0

    def step(self, round_number, alive_ids, crashed_ids, rng):
        to_crash, __ = super().step(round_number, alive_ids, crashed_ids, rng)
        to_recover: set[int] = set()
        if self.pr > 0.0 and crashed_ids:
            to_recover = _drawn(
                crashed_ids, rng.random(len(crashed_ids)), self.pr
            )
        return to_crash, to_recover


class ScheduledFailures(FailureModel):
    """Deterministic crash/recovery schedule, for targeted fault tests.

    ``crash_at`` / ``recover_at`` map a round number to the node ids that
    crash / recover at the start of that round.  When ``member_ids`` is
    given, every scheduled id must belong to it — a schedule naming an
    unknown node is a configuration bug and would otherwise only surface
    as a ``KeyError`` deep inside the engine when the round arrives.
    """

    def __init__(
        self,
        crash_at: Mapping[int, Iterable[int]] | None = None,
        recover_at: Mapping[int, Iterable[int]] | None = None,
        member_ids: Iterable[int] | None = None,
    ):
        crash_at = crash_at if crash_at is not None else {}
        recover_at = recover_at if recover_at is not None else {}
        self.crash_at = {r: set(ids) for r, ids in crash_at.items()}
        self.recover_at = {r: set(ids) for r, ids in recover_at.items()}
        for label, schedule in (("crash_at", self.crash_at),
                                ("recover_at", self.recover_at)):
            for round_number in schedule:
                if round_number < 0:
                    raise ValueError(
                        f"{label} round numbers must be >= 0, "
                        f"got {round_number}"
                    )
        if member_ids is not None:
            known = set(member_ids)
            scheduled = set().union(*self.crash_at.values(), set()) | (
                set().union(*self.recover_at.values(), set())
            )
            unknown = scheduled - known
            if unknown:
                raise ValueError(
                    f"schedule references unknown node ids "
                    f"{sorted(unknown)}; known members: {len(known)}"
                )
        self.may_recover = any(self.recover_at.values())

    def step(self, round_number, alive_ids, crashed_ids, rng):
        return (
            set(self.crash_at.get(round_number, ())),
            set(self.recover_at.get(round_number, ())),
        )
