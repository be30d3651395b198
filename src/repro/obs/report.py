"""Human-readable views over run telemetry: phase report and explain.

* :func:`render_phase_report` — the phase-by-phase table ``repro trace``
  prints: per phase, how many members entered, bumped up early, timed
  out, and had their subtree complete.
* :func:`explain` — walks an exported trace to produce a *causal*
  account of why a member's final aggregate was incomplete: which phase
  timed out, which subtree's aggregate never arrived, and what happened
  to that subtree's members (crashed, timed out themselves, or their
  gossip was lost in flight).

Both are pure functions of the trace — byte-deterministic under a fixed
seed, no timestamps.
"""

from __future__ import annotations

from repro.core.gridbox import GridBoxHierarchy
from repro.core.observe import format_subtree
from repro.obs.export import TraceDocument
from repro.obs.telemetry import RunTelemetry

__all__ = ["render_phase_report", "explain"]


def render_phase_report(telemetry: RunTelemetry) -> str:
    """The phase-by-phase text table of one traced run."""
    trace = telemetry.phase_trace
    lines = []
    config = telemetry.config_record or {}
    if config:
        lines.append(
            f"run: {config.get('protocol', '?')} N={config.get('n', '?')} "
            f"K={config.get('k', '?')} seed={config.get('seed', '?')} "
            f"(ucastl={config.get('ucastl', '?')}, "
            f"pf={config.get('pf', '?')})"
        )
    entered = trace.of_phase("phase_enter")
    early, timeouts = trace.phase_early, trace.phase_timeouts
    complete = trace.of_phase("subtree_complete")
    phases = sorted(set(entered) | set(early) | set(timeouts))
    if phases:
        lines.append(
            f"{'phase':>5} {'entered':>8} {'early':>7} {'timeout':>8} "
            f"{'complete':>9}"
        )
        for phase in phases:
            lines.append(
                f"{phase:>5} {entered.get(phase, 0):>8} "
                f"{early.get(phase, 0):>7} {timeouts.get(phase, 0):>8} "
                f"{complete.get(phase, 0):>9}"
            )
    else:
        # A protocol without phase events.
        lines.append(
            f"bump-ups: {trace.counts.get('bump_up_early', 0)} early, "
            f"{trace.counts.get('bump_up_timeout', 0)} timeout"
        )
    finalized = trace.counts.get("finalize", 0)
    lines.append(
        f"finalized: {finalized} member(s), "
        f"{trace.incomplete_finalizes} with partial coverage"
    )
    result = telemetry.result_record
    if result is not None:
        completeness = result.get("completeness")
        # Bandwidth-cap rejections are only mentioned when they happened,
        # keeping the common uncapped report line byte-stable.
        rejected = result.get("messages_rejected", 0)
        loss_note = f"{result.get('messages_dropped', 0)} dropped"
        if rejected:
            loss_note += f", {rejected} rejected by the bandwidth cap"
        lines.append(
            f"mean completeness {completeness:.6f}, "
            f"{result.get('messages_sent', 0)} messages "
            f"({loss_note}), "
            f"{result.get('crashes', 0)} crash(es) in "
            f"{result.get('rounds', 0)} rounds"
            if isinstance(completeness, float)
            else f"rounds: {result.get('rounds', 0)}"
        )
    if telemetry.sanitizer_active:
        lines.append("sanitizer: active, no invariant violations")
    if trace.dropped_events:
        lines.append(
            f"({trace.dropped_events} phase events beyond the storage cap; "
            f"counters above are exact)"
        )
    return "\n".join(lines)


def _members_of_subtree(
    document: TraceDocument, label: str, phase: int
) -> list[int]:
    """Members whose height-``phase`` subtree formats to ``label``."""
    hierarchy_id = document.hierarchy
    if hierarchy_id is None:
        return []
    hierarchy = GridBoxHierarchy(*hierarchy_id)
    return sorted(
        member
        for member, box in document.boxes.items()
        if format_subtree(hierarchy, hierarchy.subtree_of(box, phase))
        == label
    )


def _explain_missing_member(
    document: TraceDocument, member: int, lines: list[str]
) -> None:
    crash_round = document.crash_round_of(member)
    if crash_round is not None:
        lines.append(
            f"      member {member} crashed at round {crash_round}; "
            f"its vote was lost with it"
        )
    else:
        lines.append(
            f"      member {member} stayed alive but its vote never "
            f"arrived here (gossip loss within the box)"
        )


def _explain_missing_subtree(
    document: TraceDocument, label: str, phase: int, lines: list[str]
) -> None:
    """One causal level down: what happened inside the missing subtree."""
    child_phase = phase - 1
    members = _members_of_subtree(document, label, child_phase)
    if not members:
        lines.append(
            f"      subtree {label}: no member map in the trace header "
            f"(cannot attribute further)"
        )
        return
    shown = ", ".join(str(m) for m in members[:8])
    if len(members) > 8:
        shown += f", ... ({len(members)} total)"
    lines.append(f"      subtree {label} members: {shown}")
    crashed = [
        m for m in members if document.crash_round_of(m) is not None
    ]
    if crashed and len(crashed) == len(members):
        lines.append(
            f"      -> every member of {label} crashed; its aggregate "
            f"could not exist"
        )
        return
    for m in crashed[:4]:
        lines.append(
            f"      -> member {m} crashed at round "
            f"{document.crash_round_of(m)}"
        )
    timed_out = [
        event for event in document.phase_events
        if event.kind == "bump_up_timeout"
        and event.phase == child_phase
        and event.member in members
    ]
    for event in timed_out[:4]:
        lines.append(
            f"      -> member {event.member} itself timed out of phase "
            f"{event.phase} at round {event.round} missing "
            f"{', '.join(event.missing) or '(nothing; partial coverage)'}"
        )
    if not crashed and not timed_out:
        lines.append(
            f"      -> {label}'s members composed their aggregate, but "
            f"no gossip carrying it survived to this member "
            f"(message loss)"
        )


def explain(document: TraceDocument, member: int) -> str:
    """A causal account of ``member``'s final-aggregate completeness.

    Requires a full trace (stored phase events); the header's member→box
    map lets it name the members behind every missing subtree.
    """
    lines = [f"member {member}:"]
    events = document.events_of(member)
    finalize = next(
        (e for e in events if e.kind == "finalize"), None
    )
    if finalize is None:
        crash_round = document.crash_round_of(member)
        if crash_round is not None:
            lines.append(
                f"  crashed at round {crash_round} before finalizing — "
                f"no estimate to explain"
            )
        elif not events:
            lines.append(
                "  no phase events recorded (not a traced member?)"
            )
        else:
            last = events[-1]
            lines.append(
                f"  never finalized; last seen entering phase "
                f"{last.phase} at round {last.round}"
            )
        return "\n".join(lines)
    coverage = finalize.coverage
    if coverage is not None and coverage >= 1.0:
        lines.append(
            f"  finalized at round {finalize.round} with complete "
            f"coverage (1.0) — nothing was lost"
        )
        return "\n".join(lines)
    coverage_text = (
        f"{coverage:.6f}" if coverage is not None else "unknown"
    )
    lines.append(
        f"  finalized at round {finalize.round} with coverage "
        f"{coverage_text} (incomplete)"
    )
    timeouts = [e for e in events if e.kind == "bump_up_timeout"]
    if not timeouts:
        lines.append(
            "  no phase timed out here: the loss happened upstream — an "
            "accepted child aggregate was itself partial (see the "
            "timeouts of this member's subtree peers)"
        )
        return "\n".join(lines)
    for event in timeouts:
        lines.append(
            f"  - phase {event.phase} (subtree {event.subtree}) timed "
            f"out at round {event.round}, missing: "
            f"{', '.join(event.missing) or '(no keys; partial coverage)'}"
        )
        for key in event.missing[:6]:
            if key.startswith("member:"):
                _explain_missing_member(
                    document, int(key.split(":", 1)[1]), lines
                )
            else:
                _explain_missing_subtree(
                    document, key, event.phase, lines
                )
    return "\n".join(lines)
