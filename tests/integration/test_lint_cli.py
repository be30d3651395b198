"""Integration tests for the ``repro lint`` CLI verb.

Pins the exit-code contract (0 clean / 1 violations / 2 usage error),
the JSON output over the committed fixture corpus, every rule's
must-fire count, the layering rule over the corpus as one project, the
``--cache FILE`` reuse the frozen benchmark times, and the repo's own
acceptance gate: ``repro lint src/`` must be clean.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CORPUS = REPO / "tests" / "lint_corpus"

#: The corpus' pinned per-rule violation counts (see tests/lint_corpus).
#: REP007 is rep007_bad.py's two imports, the helper import in
#: rep002_interproc_bad.py and the relative one in rep007_init_bad/.
CORPUS_COUNTS = {
    "REP001": 4,
    "REP002": 5,
    "REP003": 3,
    "REP004": 3,
    "REP005": 5,
    "REP006": 4,
    "REP007": 4,
    "REP010": 1,
}


def _lint(args):
    return main(["lint", *args])


class TestExitCodes:
    def test_corpus_has_violations(self, capsys):
        assert _lint([str(CORPUS)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP005" in out

    def test_clean_file_exits_zero(self, capsys):
        assert _lint([str(CORPUS / "rep001_clean.py")]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert _lint(["--rules", "REP999", str(CORPUS)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert _lint([str(REPO / "no-such-dir")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_directory_without_python_files_is_usage_error(
        self, tmp_path, capsys
    ):
        assert _lint([str(tmp_path)]) == 2
        assert "no python files" in capsys.readouterr().err

    def test_dotted_prefix_does_not_empty_the_run(
        self, capsys, monkeypatch
    ):
        """``repro lint ../src`` used to pass the gate on zero files."""
        monkeypatch.chdir(CORPUS)
        assert _lint(["../lint_corpus"]) == 1
        assert "in 0 file(s)" not in capsys.readouterr().out

    @pytest.mark.parametrize("option", [
        ["--changed"], ["--baseline", "x.json"],
        ["--write-baseline", "x.json"], ["--suppressions", "x"],
        ["--no-cache"],
    ], ids=lambda option: option[0])
    def test_removed_options_are_rejected(self, option, capsys):
        with pytest.raises(SystemExit) as caught:
            _lint([*option, str(CORPUS)])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReportsAndSelection:
    def test_json_report_over_corpus(self, capsys):
        assert _lint(["--format", "json", str(CORPUS)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint/3"
        assert document["counts"] == CORPUS_COUNTS
        assert document["suppressed"] == 1  # the pragma in suppressed.py
        assert document["graph"]["modules"] > 0
        assert document["graph"]["import_edges"] > 0
        assert document["cache"] is None

    def test_rule_selection_narrows_the_run(self, capsys):
        assert _lint(["--rules", "REP001", str(CORPUS)]) == 1
        document_codes = {
            line.split()[1].rstrip(":")
            for line in capsys.readouterr().out.splitlines()
            if ": REP" in line
        }
        assert all(code.startswith("REP001") for code in document_codes)

    def test_select_accepts_project_rules(self, capsys):
        assert _lint(["--select", "REP007", str(CORPUS)]) == 1
        out = capsys.readouterr().out
        assert out.count("REP007") == CORPUS_COUNTS["REP007"]
        assert "REP001" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in CORPUS_COUNTS:
            assert code in out


class TestProjectRules:
    """The layering rule over the corpus linted as one project."""

    def test_each_project_rule_fires_its_pinned_count(self, capsys):
        assert _lint(["--select", "REP007", str(CORPUS)]) == 1
        fired = [
            line.split(": REP007 ")[0].removeprefix(f"{CORPUS}/")
            for line in capsys.readouterr().out.splitlines()
            if ": REP007 " in line
        ]
        assert fired == [
            "sim/rep002_interproc_bad.py:12:0",
            "sim/rep007_bad.py:7:0",
            "sim/rep007_bad.py:8:0",
            # a relative import written in a package __init__
            "sim/rep007_init_bad/__init__.py:12:0",
        ]

    def test_helper_indirection_is_a_layering_breach(self, capsys):
        """The fixture is clean in a per-file run: nothing in it reads
        a clock."""
        fixture = CORPUS / "sim" / "rep002_interproc_bad.py"
        assert _lint([str(fixture)]) == 0
        capsys.readouterr()
        # ...but when the whole corpus (including timeutil.py, the
        # module hiding the clock) is one project, importing a module
        # off sim's allow-list is the finding — no call graph needed.
        assert _lint([str(CORPUS)]) == 1
        [finding] = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(str(fixture))
        ]
        assert "REP007 'sim' must not import 'timeutil'" in finding

    def test_clean_twins_stay_silent(self, capsys):
        assert _lint([str(CORPUS)]) == 1
        out = capsys.readouterr().out
        for name in ("sim/rep007_clean.py", "obs/rep010_clean.py"):
            assert str(CORPUS / name) not in out, name


class TestCacheAndIncremental:
    def test_warm_cache_reports_hits_and_same_result(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache.json"
        assert main([
            "lint", "--cache", str(cache), str(CORPUS),
        ]) == 1
        cold = capsys.readouterr().out
        assert "miss(es)" in cold
        assert main([
            "lint", "--cache", str(cache), str(CORPUS),
        ]) == 1
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm
        # identical findings either way
        strip = lambda text: [
            line for line in text.splitlines() if ": REP" in line
        ]
        assert strip(cold) == strip(warm)

    def test_cache_invalidates_on_content_change(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        target = tmp_path / "module.py"
        target.write_text("import random\n\ndef f():\n"
                          "    return random.random()\n")
        assert main(["lint", "--cache", str(cache), str(target)]) == 1
        capsys.readouterr()
        target.write_text("def f():\n    return 0.5\n")
        assert main(["lint", "--cache", str(cache), str(target)]) == 0
        out = capsys.readouterr().out
        assert "1 miss(es)" in out


class TestAcceptanceGate:
    def test_repo_source_tree_is_clean(self, capsys):
        """The repo's own gate: zero unsuppressed violations in src/,
        and one pragma (sanitize.py's import-time env gate)."""
        assert _lint([str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and out.endswith("1 suppressed\n")

    def test_standalone_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.lint.cli", "--list-rules"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0
        assert "REP001" in completed.stdout
        assert "REP010" in completed.stdout
