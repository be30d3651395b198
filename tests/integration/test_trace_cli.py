"""Integration tests for the run-telemetry subsystem: byte-identity of
traced runs, JSONL export round-trips, the causal explain query, and the
``repro trace`` / ``--json`` CLI surfaces."""

import dataclasses
import io
import json

import pytest

from repro.cli import main
from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.export import load_trace, validate_trace_lines, write_trace
from repro.obs.report import explain, render_phase_report
from repro.obs.telemetry import RunTelemetry

#: The planted-loss scenario the explain acceptance criterion runs on:
#: heavy message loss leaves most members with incomplete aggregates.
LOSSY = dict(n=100, ucastl=0.6, seed=1)


def _traced(config):
    telemetry = RunTelemetry()
    result = run_once(config, telemetry=telemetry)
    return result, telemetry


class TestByteIdentity:
    """Tracing must never change results (golden-level guarantee)."""

    def _assert_identical(self, config):
        base = run_once(config)
        traced, _ = _traced(config)
        compact = run_once(
            dataclasses.replace(config, collect_telemetry=True)
        )
        for result in (traced, compact):
            assert result.completeness == base.completeness
            assert result.messages_sent == base.messages_sent
            assert result.messages_dropped == base.messages_dropped
            assert result.rounds == base.rounds
            assert result.crashes == base.crashes
            assert result.true_value == base.true_value
            assert result.report.per_member == base.report.per_member

    def test_default_point_seed0(self):
        self._assert_identical(with_params(seed=0))

    def test_lossy_point_seed1(self):
        self._assert_identical(with_params(**LOSSY))

    def test_campaign_run(self):
        self._assert_identical(
            with_params(n=48, campaign="rack-failure", seed=9)
        )

    def test_golden_numbers_still_hold_traced(self):
        # The exact seed-0 goldens from test_golden.py, traced.
        result, _ = _traced(with_params(seed=0))
        assert result.completeness == 1.0
        assert result.rounds == 24
        assert result.messages_sent == 9396


class TestTelemetrySummaryOnResult:
    def test_summary_attached_and_consistent(self):
        result, telemetry = _traced(with_params(**LOSSY))
        assert result.telemetry is not None
        assert result.telemetry == telemetry.summary()
        assert result.telemetry.finalize > 0
        assert result.telemetry.bump_up_timeout > 0
        assert result.telemetry.sends > 0

    def test_compact_flag_matches_full_counters(self):
        _, full = _traced(with_params(**LOSSY))
        compact = run_once(
            with_params(**LOSSY, collect_telemetry=True)
        ).telemetry
        full_summary = full.summary()
        assert compact.bump_up_early == full_summary.bump_up_early
        assert compact.bump_up_timeout == full_summary.bump_up_timeout
        assert compact.finalize == full_summary.finalize
        assert (compact.phase_timeouts == full_summary.phase_timeouts)
        # Full run stores events; compact stores none.  Neither drops.
        assert compact.dropped_phase_events == 0

    def test_untelemetered_run_has_none(self):
        assert run_once(with_params(n=32, seed=0)).telemetry is None


class TestJsonlRoundTrip:
    def test_export_reload_preserves_events(self):
        _, telemetry = _traced(with_params(**LOSSY))
        buffer = io.StringIO()
        count = write_trace(telemetry, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == count
        assert validate_trace_lines(lines) == []
        buffer.seek(0)
        document = load_trace(buffer)
        assert document.phase_events == telemetry.phase_trace.events
        assert document.engine_events == telemetry.tracer.events
        assert document.rounds == telemetry.metrics.samples
        assert document.summary["finalize"] == (
            telemetry.summary().finalize
        )
        assert document.hierarchy == telemetry.hierarchy
        assert document.boxes == telemetry.boxes

    def test_export_is_deterministic(self):
        first = io.StringIO()
        write_trace(_traced(with_params(**LOSSY))[1], first)
        second = io.StringIO()
        write_trace(_traced(with_params(**LOSSY))[1], second)
        assert first.getvalue() == second.getvalue()

    def test_result_record_embedded(self):
        result, telemetry = _traced(with_params(**LOSSY))
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        document = load_trace(buffer)
        assert document.result["schema"] == "repro-run/1"
        assert document.result["completeness"] == result.completeness


class TestExplain:
    def _document(self):
        _, telemetry = _traced(with_params(**LOSSY))
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        return load_trace(buffer), telemetry

    def test_names_phase_and_subtree_for_incomplete_member(self):
        document, telemetry = self._document()
        incomplete = next(
            e.member for e in document.phase_events
            if e.kind == "finalize"
            and e.coverage is not None and e.coverage < 1.0
            and any(t.member == e.member and t.kind == "bump_up_timeout"
                    for t in document.phase_events)
        )
        text = explain(document, incomplete)
        assert "incomplete" in text
        assert "phase" in text
        assert "subtree" in text
        assert "timed out" in text

    def test_complete_member_explained_as_complete(self):
        document, _ = self._document()
        complete = next(
            (e.member for e in document.phase_events
             if e.kind == "finalize" and e.coverage == 1.0),
            None,
        )
        if complete is None:
            pytest.skip("no complete member at this seed")
        assert "nothing was lost" in explain(document, complete)

    def test_crashed_member_explained(self):
        config = with_params(n=200, pf=0.01, seed=0)
        _, telemetry = _traced(config)
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        document = load_trace(buffer)
        crashed = next(
            (e.node for e in document.engine_events
             if e.kind == "crash"),
            None,
        )
        if crashed is None:
            pytest.skip("no crash at this seed")
        finalized = {
            e.member for e in document.phase_events
            if e.kind == "finalize"
        }
        if crashed in finalized:
            pytest.skip("crashed member finalized before dying")
        assert "crashed at round" in explain(document, crashed)

    def test_report_renders(self):
        _, telemetry = self._document()[1], None
        # render over a fresh traced run
        _, telemetry = _traced(with_params(**LOSSY))
        text = render_phase_report(telemetry)
        assert "phase" in text
        assert "finalized" in text
        assert "completeness" in text


class TestTraceCli:
    def test_trace_run_and_validate(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--n", "64", "--ucastl", "0.4", "--seed", "1",
            "--out", str(out), "--explain", "0",
        ]) == 0
        report = capsys.readouterr().out
        assert "phase" in report
        assert "member 0:" in report
        assert main(["trace", "--validate", str(out)]) == 0
        assert "valid repro-trace/1" in capsys.readouterr().out

    def test_trace_query_mode(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--n", "64", "--ucastl", "0.4", "--seed", "1",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace", "--input", str(out), "--explain", "3",
        ]) == 0
        assert "member 3:" in capsys.readouterr().out

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "mystery"}\n')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_trace_json_record(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        assert main([
            "trace", "--n", "32", "--seed", "0", "--json", str(path),
        ]) == 0
        record = json.loads(path.read_text())
        assert record["schema"] == "repro-run/1"
        assert record["telemetry"]["finalize"] > 0

    def test_trace_max_events_cap(self, tmp_path, capsys):
        assert main([
            "trace", "--n", "64", "--ucastl", "0.4", "--seed", "1",
            "--max-events", "5",
        ]) == 0
        assert "beyond the storage cap" in capsys.readouterr().out


class TestBudgetsCli:
    TRACE_ARGS = ["trace", "--n", "64", "--ucastl", "0.4", "--seed", "1"]

    def test_run_mode_prints_the_budget_table(self, capsys):
        assert main([*self.TRACE_ARGS, "--budgets"]) == 0
        out = capsys.readouterr().out
        assert "per-phase round budgets" in out
        assert "#" in out  # the share bars

    def test_query_mode_is_deterministic(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([*self.TRACE_ARGS, "--out", str(trace)]) == 0
        capsys.readouterr()
        emitted = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            assert main([
                "trace", "--input", str(trace),
                "--budgets-json", str(target),
            ]) == 0
            emitted.append(target.read_bytes())
        assert emitted[0] == emitted[1]
        record = json.loads(emitted[0])
        assert record["schema"] == "repro-budgets/1"
        # The budget tiles the round axis, so its totals must equal the
        # embedded result record's.
        result = load_trace(str(trace)).result
        assert record["total_messages"] == result["messages_sent"]
        assert record["total_bytes"] == result["bytes_sent"]
        assert record["total_rounds"] == result["rounds"]

    def test_budgets_json_to_stdout(self, capsys):
        assert main([
            *self.TRACE_ARGS, "--budgets-json", "-",
        ]) == 0
        out = capsys.readouterr().out
        payload = out[out.index('{"phases"'):]
        assert json.loads(payload)["schema"] == "repro-budgets/1"

    def test_compact_trace_cannot_be_budgeted(self, tmp_path, capsys):
        trace = tmp_path / "compact.jsonl"
        assert main([
            "trace", "--n", "32", "--seed", "0", "--max-events", "0",
            "--out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace", "--input", str(trace), "--budgets",
        ]) == 1
        assert "cannot budget" in capsys.readouterr().out


class TestTraceDiffCli:
    def _write_trace(self, tmp_path, name, seed):
        out = tmp_path / name
        assert main([
            "trace", "--n", "64", "--ucastl", "0.4",
            "--seed", str(seed), "--out", str(out), "--explain", "0",
        ]) == 0
        return out

    def test_same_run_diffs_identical(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a.jsonl", seed=1)
        b = self._write_trace(tmp_path, "b.jsonl", seed=1)
        capsys.readouterr()
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "traces are identical" in out
        assert "member(s) compared" in out

    def test_different_seeds_diverge_with_triage_detail(
        self, tmp_path, capsys
    ):
        a = self._write_trace(tmp_path, "a.jsonl", seed=1)
        b = self._write_trace(tmp_path, "b.jsonl", seed=2)
        capsys.readouterr()
        assert main(["trace", "--diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "config: 1 differing key(s)" in out
        assert "seed: a=1 b=2" in out
        assert "diverge" in out
        assert "first divergence at event #" in out

    def test_diff_output_is_deterministic(self, tmp_path, capsys):
        a = self._write_trace(tmp_path, "a.jsonl", seed=1)
        b = self._write_trace(tmp_path, "b.jsonl", seed=2)
        capsys.readouterr()
        main(["trace", "--diff", str(a), str(b)])
        first = capsys.readouterr().out
        main(["trace", "--diff", str(a), str(b)])
        second = capsys.readouterr().out
        assert first == second


class TestRunJsonCli:
    def test_run_json_stdout(self, capsys):
        assert main([
            "run", "--n", "32", "--seed", "0", "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        record = json.loads(out[out.index("{"):])
        assert record["schema"] == "repro-run/1"
        assert record["n"] == 32

    def test_run_and_trace_json_agree(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "run", "--n", "32", "--seed", "5", "--json", str(run_path),
        ]) == 0
        assert main([
            "trace", "--n", "32", "--seed", "5", "--json",
            str(trace_path),
        ]) == 0
        run_record = json.loads(run_path.read_text())
        trace_record = json.loads(trace_path.read_text())
        for key in ("completeness", "messages_sent", "rounds",
                    "true_value", "crashes"):
            assert run_record[key] == trace_record[key]


class TestChaosTelemetry:
    def test_report_carries_merged_telemetry(self):
        from repro.experiments.robustness import robustness_matrix

        report = robustness_matrix(
            campaigns=("paper-iid",), ns=(32,), runs=2, seed=0,
        )
        cell = report.cells[0]
        assert cell.telemetry is not None
        assert cell.telemetry.runs == 2
        assert cell.telemetry.finalize > 0
        document = json.loads(report.to_json())
        assert document["cells"][0]["telemetry"]["runs"] == 2
        header = report.to_csv().splitlines()[0]
        assert "bump_up_timeout" in header
        assert "phase telemetry" in report.render()


class TestSweepTelemetry:
    def test_telemetered_sweep_adds_columns(self):
        from repro.experiments.sweep import Sweep

        sweep = Sweep(
            base=with_params(n=32, collect_telemetry=True), runs=2,
        )
        table = sweep.run(sweep.grid(ucastl=[0.0, 0.5]))
        assert "timeout_bumps" in table.headers
        column = table.headers.index("timeout_bumps")
        clean_bumps, lossy_bumps = table.rows[0][column], table.rows[1][column]
        assert lossy_bumps > clean_bumps

    def test_untelemetered_sweep_unchanged(self):
        from repro.experiments.sweep import Sweep

        sweep = Sweep(base=with_params(n=32), runs=1)
        table = sweep.run(sweep.grid(ucastl=[0.0]))
        assert "timeout_bumps" not in table.headers
