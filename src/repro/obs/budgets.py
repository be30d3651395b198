"""Per-phase round budgets: where a run spent its rounds/messages/bytes.

``repro trace --budgets`` renders a flamegraph-style report over an
existing ``repro-trace/1`` document: the run's round axis is cut into
per-phase intervals (phase *p* starts at the earliest round any member
entered it and runs until phase *p+1* starts; the last phase extends to
the final observed round), and each interval is charged the round
samples that fall inside it.  The output is the share of rounds,
messages and bytes each phase consumed — the protocol analogue of a
time-profile, computed deterministically from the trace alone (no
wall-clock anywhere, so the report is byte-stable for a given file).

The JSON flavour carries schema ``repro-budgets/1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.export import TraceDocument

__all__ = [
    "BUDGETS_SCHEMA",
    "PhaseBudget",
    "BudgetReport",
    "budget_report",
]

BUDGETS_SCHEMA = "repro-budgets/1"

_BAR_WIDTH = 40


@dataclass(frozen=True)
class PhaseBudget:
    """One phase's slice of the run."""

    phase: int
    start_round: int
    end_round: int  # inclusive
    rounds: int
    messages: int
    bytes: int
    dropped: int
    phase_events: int

    def to_record(self) -> dict:
        return {
            "phase": self.phase,
            "start_round": self.start_round,
            "end_round": self.end_round,
            "rounds": self.rounds,
            "messages": self.messages,
            "bytes": self.bytes,
            "dropped": self.dropped,
            "phase_events": self.phase_events,
        }


@dataclass(frozen=True)
class BudgetReport:
    """The whole run's per-phase budget breakdown."""

    phases: tuple[PhaseBudget, ...]
    total_rounds: int
    total_messages: int
    total_bytes: int

    def _share(self, value: int, total: int) -> float:
        return value / total if total else 0.0

    def to_record(self) -> dict:
        return {
            "schema": BUDGETS_SCHEMA,
            "total_rounds": self.total_rounds,
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "phases": [
                {
                    **budget.to_record(),
                    "rounds_share": self._share(
                        budget.rounds, self.total_rounds
                    ),
                    "messages_share": self._share(
                        budget.messages, self.total_messages
                    ),
                    "bytes_share": self._share(
                        budget.bytes, self.total_bytes
                    ),
                }
                for budget in self.phases
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    def render(self) -> str:
        """The flamegraph-style text report."""
        lines = [
            "per-phase round budgets "
            f"({self.total_rounds} rounds, "
            f"{self.total_messages} messages, "
            f"{self.total_bytes} bytes)",
            "",
            f"{'phase':>5}  {'rounds':>13}  {'messages':>15}  "
            f"{'bytes':>15}  share",
        ]
        for budget in self.phases:
            share = self._share(budget.messages, self.total_messages)
            bar = "#" * max(
                1 if budget.messages else 0,
                round(share * _BAR_WIDTH),
            )
            if budget.rounds:
                rounds_text = (
                    f"{budget.rounds:>4} "
                    f"[{budget.start_round}..{budget.end_round}]"
                )
            else:
                rounds_text = "   0 (shared)"
            lines.append(
                f"{budget.phase:>5}  {rounds_text:>13}  "
                f"{budget.messages:>8} {self._share(budget.messages, self.total_messages):>6.1%}  "
                f"{budget.bytes:>8} {self._share(budget.bytes, self.total_bytes):>6.1%}  "
                f"{bar}"
            )
        return "\n".join(lines)


def budget_report(document: TraceDocument) -> BudgetReport:
    """Compute the per-phase budget of a parsed trace.

    Raises ``ValueError`` when the trace has no stored phase events
    (a compact trace cannot be budgeted — intervals are unknowable) or
    the storage cap dropped some: a phase whose entries were all
    dropped would silently merge into the one before it.
    """
    dropped = (document.summary or {}).get("dropped_phase_events", 0)
    if dropped:
        raise ValueError(
            f"trace dropped {dropped} phase events beyond its storage cap "
            f"(phase intervals are unknowable — re-run with a larger cap)"
        )
    enters: dict[int, int] = {}
    event_counts: dict[int, int] = {}
    for event in document.phase_events:
        if event.kind == "phase_enter":
            current = enters.get(event.phase)
            if current is None or event.round < current:
                enters[event.phase] = event.round
        event_counts[event.phase] = event_counts.get(event.phase, 0) + 1
    if not enters:
        raise ValueError(
            "trace has no phase_enter events (compact traces cannot "
            "be budgeted — re-run with full telemetry)"
        )
    last_round = max(
        [sample.round for sample in document.rounds]
        + [event.round for event in document.phase_events]
    )
    ordered = sorted(enters.items())
    budgets = []
    for index, (phase, start) in enumerate(ordered):
        # Half-open, non-overlapping: phase p owns [its first entry,
        # the next phase's first entry).  Two phases entered in the
        # same round leave the earlier one an empty slice — the round
        # axis is partitioned, so the per-phase sums reproduce the
        # run's totals exactly.
        if index + 1 < len(ordered):
            stop = ordered[index + 1][1]
        else:
            stop = last_round + 1
        stop = max(stop, start)
        messages = bytes_ = dropped = 0
        for sample in document.rounds:
            if start <= sample.round < stop:
                messages += sample.messages_sent
                bytes_ += sample.bytes_sent
                dropped += sample.messages_dropped
        budgets.append(PhaseBudget(
            phase=phase,
            start_round=start,
            end_round=stop - 1,
            rounds=stop - start,
            messages=messages,
            bytes=bytes_,
            dropped=dropped,
            phase_events=event_counts.get(phase, 0),
        ))
    return BudgetReport(
        phases=tuple(budgets),
        total_rounds=sum(budget.rounds for budget in budgets),
        total_messages=sum(budget.messages for budget in budgets),
        total_bytes=sum(budget.bytes for budget in budgets),
    )
