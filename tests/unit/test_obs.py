"""Unit tests for the observability package (repro.obs) and the
core-side phase-event vocabulary (repro.core.observe)."""

import io
import json
from collections import Counter

import pytest

from repro.core.gridbox import GridBoxHierarchy
from repro.core.observe import (
    PHASE_EVENT_KINDS,
    PhaseEvent,
    format_key,
    format_subtree,
)
from repro.obs.export import validate_trace_lines
from repro.obs.phase import PhaseTrace
from repro.obs.profiling import SectionProfiler
from repro.obs.telemetry import (
    RunTelemetry,
    TelemetrySummary,
    merge_summaries,
)
from repro.sim.trace import KINDS as TRACE_KINDS, TraceEvent, Tracer


def _event(kind="phase_enter", member=0, round=0, phase=1, **kwargs):
    return PhaseEvent(
        kind=kind, member=member, round=round, phase=phase, **kwargs
    )


class TestPhaseTrace:
    def test_counts_every_kind(self):
        trace = PhaseTrace()
        for kind in PHASE_EVENT_KINDS:
            trace.emit(_event(kind=kind))
        assert all(trace.counts[kind] == 1 for kind in PHASE_EVENT_KINDS)
        assert len(trace.events) == len(PHASE_EVENT_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown phase event"):
            PhaseTrace().emit(_event(kind="explode"))

    def test_counters_exact_past_cap(self):
        trace = PhaseTrace(max_events=2)
        for index in range(10):
            trace.emit(_event(member=index))
        assert len(trace.events) == 2
        assert trace.dropped_events == 8
        assert trace.counts["phase_enter"] == 10

    def test_counters_only_shape_has_no_drops(self):
        # store_events=False means nothing was meant to be stored, so
        # nothing counts as "dropped" (dropped == hit the cap).
        trace = PhaseTrace(store_events=False)
        for index in range(5):
            trace.emit(_event(member=index))
        assert trace.events == []
        assert trace.dropped_events == 0
        assert trace.counts["phase_enter"] == 5

    def test_per_phase_timeout_and_early_counters(self):
        trace = PhaseTrace()
        trace.emit(_event(kind="bump_up_timeout", phase=1))
        trace.emit(_event(kind="bump_up_timeout", phase=1))
        trace.emit(_event(kind="bump_up_timeout", phase=2))
        trace.emit(_event(kind="bump_up_early", phase=1))
        assert trace.phase_timeouts == {1: 2, 2: 1}
        assert trace.phase_early == {1: 1}

    def test_incomplete_finalizes(self):
        trace = PhaseTrace()
        trace.emit(_event(kind="finalize", coverage=1.0))
        trace.emit(_event(kind="finalize", coverage=0.5))
        trace.emit(_event(kind="finalize", coverage=None))
        assert trace.incomplete_finalizes == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            PhaseTrace(max_events=-1)

    def test_summary_mentions_cap_overflow(self):
        trace = PhaseTrace(max_events=0, store_events=True)
        # max_events=0 with storage on: the degenerate explicit cap.
        trace.emit(_event())
        assert "beyond cap" in trace.summary()


class TestPhaseReport:
    """The report's per-phase columns are counters: exact whether the
    events were stored, capped or never stored at all."""

    @staticmethod
    def _table(text):
        rows = {}
        for line in text.splitlines():
            cells = line.split()
            if len(cells) == 5 and cells[0].isdigit():
                rows[int(cells[0])] = [int(cell) for cell in cells[1:]]
        return rows

    @pytest.mark.parametrize("shape", ["compact", "capped"])
    def test_entered_and_complete_are_exact(self, shape):
        from repro.experiments.params import with_params
        from repro.experiments.runner import run_once
        from repro.obs.report import render_phase_report

        telemetry = (
            RunTelemetry.compact() if shape == "compact"
            else RunTelemetry(phase_trace=PhaseTrace(max_events=50))
        )
        run_once(with_params(n=128, ucastl=0.6, seed=1), telemetry=telemetry)
        trace = telemetry.phase_trace
        rows = self._table(render_phase_report(telemetry))
        assert len(rows) == 3
        entered, early, timeout, complete = (
            {phase: row[column] for phase, row in rows.items()}
            for column in range(4)
        )
        assert sum(entered.values()) == trace.counts["phase_enter"] > 50
        assert sum(complete.values()) == trace.counts["subtree_complete"] > 0
        assert Counter(early) == trace.phase_early
        assert Counter(timeout) == trace.phase_timeouts


@pytest.mark.parametrize("make, take, event", [
    pytest.param(Tracer, Tracer.record, TraceEvent(0, "send", 0),
                 id="Tracer"),
    pytest.param(PhaseTrace, PhaseTrace.emit, _event(), id="PhaseTrace"),
])
@pytest.mark.parametrize("cap", [0, 3])
def test_a_cap_drops_what_it_cannot_store(make, take, event, cap):
    # One rule for both logs: every event counted, the first ``cap``
    # stored, the rest dropped; a zero cap is a cap like any other.
    log = make(max_events=cap)
    for __ in range(5):
        take(log, event)
    assert len(log.events) == cap
    assert log.dropped_events == 5 - cap
    assert sum(log.counts.values()) == 5
    assert ("beyond cap" in log.summary()) == (cap < 5)


class TestTracerCapAndPredicate:
    """The Tracer's storage cap against its exact counters."""

    def test_counters_exact_past_cap(self):
        tracer = Tracer(max_events=3)
        for index in range(10):
            tracer.record(TraceEvent(0, "send", index))
        assert len(tracer.events) == 3
        assert tracer.dropped_events == 7
        assert tracer.counts["send"] == 10

    def test_counters_only_shape_has_no_drops(self):
        # The engine's counters-only shape is no tracer at all (a zero
        # cap is a cap, see above): the summary reads the engine's own
        # books and reports no drop.
        from repro.experiments.params import with_params
        from repro.experiments.runner import run_once

        summary = run_once(
            with_params(n=64, seed=1, collect_telemetry=True)
        ).telemetry
        assert summary.sends > 0
        assert (summary.dropped_engine_events,
                summary.dropped_phase_events) == (0, 0)


class TestTelemetrySummary:
    def test_merge_sums_fields_and_pairs(self):
        first = TelemetrySummary(
            runs=1, bump_up_timeout=3, phase_timeouts=((1, 2), (2, 1)),
            sanitizer_active=True,
        )
        second = TelemetrySummary(
            runs=1, bump_up_timeout=1, phase_timeouts=((2, 4),),
            sanitizer_active=True,
        )
        merged = merge_summaries([first, second])
        assert merged.runs == 2
        assert merged.bump_up_timeout == 4
        assert dict(merged.phase_timeouts) == {1: 2, 2: 5}
        assert merged.sanitizer_active

    def test_merge_sanitizer_is_conjunction(self):
        merged = merge_summaries([
            TelemetrySummary(sanitizer_active=True),
            TelemetrySummary(sanitizer_active=False),
        ])
        assert not merged.sanitizer_active

    def test_merge_empty(self):
        assert merge_summaries([]).runs == 0

    def test_to_record_uses_string_phase_keys(self):
        summary = TelemetrySummary(phase_timeouts=((1, 2),))
        record = summary.to_record()
        assert record["phase_timeouts"] == {"1": 2}
        json.dumps(record)  # must be JSON-serializable as-is


class TestRunTelemetry:
    def test_compact_shape_stores_nothing(self):
        telemetry = RunTelemetry.compact()
        assert telemetry.tracer is None
        assert telemetry.metrics is None
        telemetry.phase_trace.emit(_event(kind="finalize"))
        assert telemetry.phase_trace.events == []
        assert telemetry.phase_trace.counts["finalize"] == 1

    def test_profile_is_noop_without_profiler(self):
        telemetry = RunTelemetry.compact()
        with telemetry.profile("anything"):
            pass  # must not raise

    def test_summary_reflects_collected_events(self):
        # Phase events are counted by the sink; the engine totals are
        # read from the finished engine's own books.
        from types import SimpleNamespace

        from repro.sim.engine import EngineStats
        from repro.sim.network import NetworkStats

        telemetry = RunTelemetry.compact()
        telemetry.phase_trace.emit(_event(kind="bump_up_timeout", phase=2))
        telemetry.finish(engine=SimpleNamespace(
            stats=EngineStats(
                rounds_executed=7, messages_delivered=3, crashes=1,
                recoveries=1,
            ),
            network=SimpleNamespace(stats=NetworkStats(
                sent=5, dropped=1, rejected_bandwidth=2,
            )),
            terminated_count=4,
        ))
        summary = telemetry.summary()
        assert summary.bump_up_timeout == 1
        assert dict(summary.phase_timeouts) == {2: 1}
        assert summary.rounds == 7
        assert (summary.sends, summary.sends_lost, summary.sends_rejected,
                summary.delivers, summary.crashes, summary.recoveries,
                summary.terminates) == (4, 1, 2, 3, 1, 1, 4)

    @pytest.mark.parametrize(
        "overrides, exercised",
        [
            pytest.param(
                dict(n=64, seed=2, pf=0.01, max_sends_per_round=1),
                lambda result: result.telemetry.sends_rejected,
                id="capped",
            ),
            pytest.param(
                dict(n=128, seed=3, campaign="churn"),
                lambda result: result.telemetry.recoveries,
                id="churn",
            ),
            pytest.param(
                dict(n=128, seed=0, campaign="tamper-forge"),
                lambda result: result.adversarial.injected_total,
                id="tamper",
            ),
        ],
    )
    def test_compact_summary_equals_full_run_summary(
        self, overrides, exercised
    ):
        # The full run's tracer counts every engine event as it happens:
        # that count is the oracle for the totals compact telemetry reads
        # off the engine's books instead.
        from repro.experiments.params import with_params
        from repro.experiments.runner import run_once

        full = RunTelemetry()
        expected = run_once(with_params(**overrides), telemetry=full)
        counted = full.tracer.counts
        summary = expected.telemetry
        assert (summary.dropped_engine_events,
                summary.dropped_phase_events) == (0, 0)
        assert {
            "send": summary.sends,
            "send_lost": summary.sends_lost,
            "send_rejected": summary.sends_rejected,
            "deliver": summary.delivers,
            "crash": summary.crashes,
            "recover": summary.recoveries,
            "terminate": summary.terminates,
        } == {kind: counted.get(kind, 0) for kind in TRACE_KINDS}
        assert exercised(expected) > 0  # the config hits its counter
        compact = run_once(
            with_params(collect_telemetry=True, **overrides)
        )
        assert compact.telemetry == summary

    def test_finish_records_config_duck_typed(self):
        import dataclasses

        @dataclasses.dataclass
        class FakeConfig:
            n: int = 8
            seed: int = 1

        telemetry = RunTelemetry.compact()
        telemetry.finish(config=FakeConfig())
        assert telemetry.config_record == {"n": 8, "seed": 1}


class TestSectionProfiler:
    def test_sections_accumulate(self):
        profiler = SectionProfiler()
        with profiler.section("a"):
            pass
        with profiler.section("a"):
            pass
        with profiler.section("b"):
            pass
        assert profiler.calls == {"a": 2, "b": 1}
        assert set(profiler.totals) == {"a", "b"}
        assert all(seconds >= 0.0 for seconds in profiler.totals.values())

    def test_merge_and_report(self):
        first, second = SectionProfiler(), SectionProfiler()
        with first.section("a"):
            pass
        with second.section("a"):
            pass
        first.merge(second)
        assert first.calls["a"] == 2
        assert "a" in first.report()

    def test_as_records_is_json_ready(self):
        profiler = SectionProfiler()
        with profiler.section("x"):
            pass
        json.dumps(profiler.as_records())


class TestSubtreeFormatting:
    def test_root_and_prefixes(self):
        hierarchy = GridBoxHierarchy(64, 4)  # base-4 digit addresses
        assert format_subtree(hierarchy, hierarchy.root()) == "*"
        leaf_parent = hierarchy.subtree_of(0, 1)
        label = format_subtree(hierarchy, leaf_parent)
        assert label.endswith("*")
        assert len(label.rstrip("*")) == hierarchy.num_phases - 1

    def test_format_key_members_and_subtrees(self):
        hierarchy = GridBoxHierarchy(64, 4)
        assert format_key(hierarchy, 17) == "member:17"
        subtree = hierarchy.subtree_of(0, 1)
        assert format_key(hierarchy, subtree).endswith("*")


class TestValidateTraceLines:
    def _valid_lines(self):
        header = {"record": "header", "schema": "repro-trace/1",
                  "config": {}, "sanitizer_active": False}
        summary = {"record": "summary",
                   **TelemetrySummary().to_record()}
        return [json.dumps(header), json.dumps(summary)]

    def test_minimal_valid_document(self):
        assert validate_trace_lines(self._valid_lines()) == []

    def test_bad_json_reported(self):
        errors = validate_trace_lines(["{not json"])
        assert errors and "line 1" in errors[0]

    def test_header_must_come_first(self):
        lines = self._valid_lines()
        errors = validate_trace_lines(list(reversed(lines)))
        assert any("header" in error for error in errors)

    def test_unknown_record_type_reported(self):
        lines = self._valid_lines()
        lines.insert(1, json.dumps({"record": "mystery"}))
        errors = validate_trace_lines(lines)
        assert any("mystery" in error for error in errors)

    def test_unknown_phase_kind_reported(self):
        lines = self._valid_lines()
        lines.insert(1, json.dumps({
            "record": "phase", "kind": "explode", "member": 0,
            "round": 0, "phase": 1,
        }))
        errors = validate_trace_lines(lines)
        assert any("explode" in error for error in errors)

    def test_accepts_file_object(self):
        handle = io.StringIO("\n".join(self._valid_lines()) + "\n")
        assert validate_trace_lines(handle) == []
