"""Per-phase round budgets (repro.obs.budgets).

The partition invariant is the whole point: the phase intervals are
half-open and non-overlapping, they tile the run's round axis exactly,
so the per-phase message/byte sums reproduce the run's totals — a
budget report that charged a round twice (or never) would misattribute
cost.  Pinned on synthetic traces here and against a real traced run's
result record at the end.
"""

import io

import pytest

from repro.core.observe import PhaseEvent
from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.budgets import BUDGETS_SCHEMA, budget_report
from repro.obs.export import TraceDocument, load_trace, write_trace
from repro.obs.phase import PhaseTrace
from repro.obs.telemetry import RunTelemetry
from repro.sim.metrics import RoundSample


def _enter(phase, round):
    return PhaseEvent(
        kind="phase_enter", member=0, round=round, phase=phase
    )


def _round(round, messages, bytes_=None, dropped=0):
    return RoundSample(
        round=round, messages_sent=messages,
        bytes_sent=bytes_ if bytes_ is not None else messages * 10,
        messages_dropped=dropped, live_members=8, active_members=8,
        max_sends_by_member=2,
    )


def _document(events, rounds):
    return TraceDocument(phase_events=list(events), rounds=list(rounds))


class TestPartition:
    def test_intervals_tile_the_round_axis(self):
        document = _document(
            [_enter(1, 0), _enter(2, 3), _enter(3, 5)],
            [_round(r, messages=10 * (r + 1)) for r in range(8)],
        )
        report = budget_report(document)
        spans = [(b.phase, b.start_round, b.end_round, b.rounds)
                 for b in report.phases]
        assert spans == [(1, 0, 2, 3), (2, 3, 4, 2), (3, 5, 7, 3)]
        # Tiling: per-phase sums reproduce the run's totals exactly.
        assert report.total_rounds == 8
        assert report.total_messages == sum(
            s.messages_sent for s in document.rounds
        )
        assert report.total_bytes == sum(
            s.bytes_sent for s in document.rounds
        )
        assert [b.messages for b in report.phases] == [60, 90, 210]

    def test_same_round_entries_leave_an_empty_slice(self):
        document = _document(
            [_enter(1, 0), _enter(2, 0), _enter(3, 4)],
            [_round(r, messages=5) for r in range(6)],
        )
        report = budget_report(document)
        first = report.phases[0]
        assert (first.rounds, first.messages, first.bytes) == (0, 0, 0)
        assert first.start_round == 0 and first.end_round == -1
        # Nothing double-counted: the totals still tile.
        assert report.total_messages == 30
        assert "(shared)" in report.render()

    def test_earliest_entry_per_phase_wins(self):
        document = _document(
            [_enter(1, 0), _enter(2, 5), _enter(2, 2)],
            [_round(r, messages=1) for r in range(6)],
        )
        report = budget_report(document)
        assert report.phases[1].start_round == 2

    def test_last_phase_extends_to_the_last_observed_round(self):
        # Phase events can trail the last round sample (a finalize in
        # the terminating round); the axis covers both.
        document = _document(
            [_enter(1, 0),
             PhaseEvent(kind="finalize", member=0, round=9, phase=1)],
            [_round(r, messages=2) for r in range(4)],
        )
        report = budget_report(document)
        assert report.phases[0].end_round == 9
        assert report.total_rounds == 10

    def test_phase_events_are_counted_per_phase(self):
        document = _document(
            [_enter(1, 0), _enter(1, 0),
             PhaseEvent(kind="finalize", member=0, round=2, phase=1)],
            [_round(0, messages=1)],
        )
        report = budget_report(document)
        assert report.phases[0].phase_events == 3

    def test_compact_trace_raises(self):
        document = _document([], [_round(0, messages=1)])
        with pytest.raises(ValueError, match="no phase_enter"):
            budget_report(document)


class TestRecord:
    def test_record_shape_and_shares(self):
        document = _document(
            [_enter(1, 0), _enter(2, 2)],
            [_round(r, messages=10) for r in range(4)],
        )
        record = budget_report(document).to_record()
        assert record["schema"] == BUDGETS_SCHEMA
        assert record["total_messages"] == 40
        shares = [p["messages_share"] for p in record["phases"]]
        assert shares == [0.5, 0.5]
        assert sum(p["rounds_share"] for p in record["phases"]) == 1.0

    def test_json_is_deterministic(self):
        def build():
            return budget_report(_document(
                [_enter(1, 0), _enter(2, 2)],
                [_round(r, messages=7) for r in range(5)],
            ))
        assert build().to_json() == build().to_json()


class TestAgainstRealRun:
    def test_budget_totals_reproduce_the_run_record(self):
        telemetry = RunTelemetry()
        result = run_once(
            with_params(n=64, seed=1, ucastl=0.4), telemetry=telemetry
        )
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        report = budget_report(load_trace(buffer))
        assert report.total_messages == result.messages_sent
        assert report.total_bytes == result.bytes_sent
        assert len(report.phases) >= 2
        phases = [b.phase for b in report.phases]
        assert phases == sorted(phases)
        # The phase intervals tile the run's full round axis.
        assert report.total_rounds == result.rounds

    def test_capped_trace_is_refused(self):
        # A cap that drops events can drop every entry of a phase, which
        # would merge it into the phase before: refuse instead.
        telemetry = RunTelemetry(phase_trace=PhaseTrace(max_events=200))
        run_once(with_params(n=128, seed=1, ucastl=0.4), telemetry=telemetry)
        assert telemetry.phase_trace.dropped_events > 0
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        with pytest.raises(ValueError, match="storage cap"):
            budget_report(load_trace(buffer))
