"""Integration tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import FIGURE_IDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig4"])
        assert args.command == "fig4"

    def test_static_figure_ids_match_the_registry(self):
        # FIGURE_IDS is pinned statically so building the parser never
        # imports the numpy/scipy figure stack; it must track the real
        # registry exactly.
        from repro.cli import FIGURE_IDS
        from repro.experiments.figures import ALL_FIGURES

        assert FIGURE_IDS == tuple(ALL_FIGURES)

    def test_verb_set_is_pinned(self):
        (sub,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert tuple(sub.choices) == (
            "list", *FIGURE_IDS, "run", "trace", "chaos", "lint", "serve",
            "top",
        )

    @pytest.mark.parametrize("verb", ["monitor", "show-hierarchy"])
    def test_deleted_verbs_are_usage_errors(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--n", "64", "--ucastl", "0.1", "--protocol", "flood"]
        )
        assert args.n == 64
        assert args.ucastl == 0.1
        assert args.protocol == "flood"


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "fig11" in out

    def test_analytic_figure(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "1/N" in out

    def test_run_single(self, capsys):
        assert main([
            "run", "--n", "32", "--ucastl", "0", "--pf", "0",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean completeness   : 1.000000" in out

    def test_run_baseline_protocol(self, capsys):
        assert main([
            "run", "--n", "32", "--protocol", "centralized",
            "--ucastl", "0", "--pf", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "centralized" in out

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "fig5.csv"
        assert main(["fig5", "--csv", str(target)]) == 0
        content = target.read_text()
        assert content.startswith("K,")

    def test_simulated_figure_with_runs(self, capsys):
        assert main(["fig8", "--runs", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rounds/phase" in out


class TestBadRunParameters:
    """Parameters no world can be built from: one ``repro: error:`` line
    on stderr and argparse's exit status 2, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "0"], "group size n must be >= 1, got 0"),
        (["run", "--k", "1"], "K must be at least 2"),
        (["run", "--ucastl", "1.5"], "ucastl must be a probability"),
        (["run", "--c", "0"], "C must be positive"),
        (["run", "--fanout", "5", "--n", "3"], "exceeds the group size"),
        (["run", "--start-spread", "-3"], "start_spread must be >= 0"),
        (["trace", "--n", "0"], "group size n must be >= 1, got 0"),
        (["chaos", "--n", "0"], "group size n must be >= 1, got 0"),
        (["chaos", "--n", "16", "--k", "1", "--runs", "1",
          "--campaign", "crash-storm"], "K must be at least 2"),
        (["run", "--aggregate", "bogus"], "unknown aggregate 'bogus'"),
        (["trace", "--aggregate", "bogus"], "unknown aggregate 'bogus'"),
        (["run", "--aggregate", "histogram"], "cannot be built by name"),
        (["fig8", "--runs", "0"], "runs must be >= 1, got 0"),
        (["fig6", "--runs", "-2"], "runs must be >= 1, got -2"),
        (["chaos", "--n", "16", "--runs", "0", "--campaign", "crash-storm"],
         "runs must be >= 1, got 0"),
    ])
    def test_reported_as_a_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_exit_status_of_the_real_process(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--n", "0"],
            capture_output=True, text=True,
            env={
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert completed.stderr == (
            "repro: error: group size n must be >= 1, got 0\n"
        )

    def test_a_failure_inside_the_simulation_still_raises(self, monkeypatch):
        from repro.sim.engine import SimulationEngine

        def broken_run(self, until=None):
            raise ValueError("not the config's fault")

        monkeypatch.setattr(SimulationEngine, "run", broken_run)
        with pytest.raises(ValueError, match="not the config's fault"):
            main(["run", "--n", "16", "--engine", "object"])
