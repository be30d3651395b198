"""Engine-level tests: pragmas, discovery, reports.

The rule logic itself is covered in ``test_lint_rules.py``; here the
subject is the machinery around it — how violations are silenced,
how files are found, and the exact shape of the text/JSON reports the
CI gate consumes.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    LintEngine,
    Violation,
    render_json,
    render_text,
)
from repro.lint.engine import parse_pragmas

RNG_SOURCE = textwrap.dedent(
    """
    import numpy as np

    def f(seed):
        return np.random.default_rng(seed)
    """
)


def _violation(code="REP001", path="src/repro/sim/x.py", line=5):
    return Violation(
        code=code, path=path, line=line, col=4, message="test violation"
    )


class TestPragmas:
    def test_bare_pragma_suppresses_every_code(self):
        pragmas = parse_pragmas("x = 1  # repro-lint: ok\n")
        assert pragmas == {1: None}

    def test_coded_pragma_lists_codes(self):
        pragmas = parse_pragmas("x = 1  # repro-lint: ok[REP001, REP004]\n")
        assert pragmas == {1: frozenset({"REP001", "REP004"})}

    def test_line_numbers_are_one_based(self):
        pragmas = parse_pragmas("a = 1\nb = 2  # repro-lint: ok[REP005]\n")
        assert set(pragmas) == {2}

    def test_coded_pragma_silences_only_named_rule(self):
        source = RNG_SOURCE.replace(
            "default_rng(seed)",
            "default_rng(seed)  # repro-lint: ok[REP002]",
        )
        result = LintEngine().check_source(source, "src/repro/sim/x.py")
        assert [v.code for v in result.violations] == ["REP001"]
        assert result.suppressed == 0

    def test_matching_pragma_counts_as_suppressed(self):
        source = RNG_SOURCE.replace(
            "default_rng(seed)",
            "default_rng(seed)  # repro-lint: ok[REP001]",
        )
        result = LintEngine().check_source(source, "src/repro/sim/x.py")
        assert result.violations == []
        assert result.suppressed == 1


class TestDiscovery:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LintEngine.discover([tmp_path / "nope"])

    def test_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "mod.py").write_text("x = 1\n")
        found = LintEngine.discover([tmp_path])
        assert found == [tmp_path / "pkg" / "mod.py"]

    def test_hidden_filter_looks_below_the_lint_root_only(
        self, tmp_path, monkeypatch
    ):
        # A checkout under ``~/.cache/`` or a root spelled ``../src``
        # has a dot-part in its *prefix*; that must not hide the tree.
        root = tmp_path / ".cache" / "checkout" / "src"
        root.mkdir(parents=True)
        (root / "mod.py").write_text("x = 1\n")
        assert LintEngine.discover([root]) == [root / "mod.py"]
        monkeypatch.chdir(root)
        assert LintEngine.discover([Path("../src")]) == [
            Path("../src/mod.py")
        ]

    def test_directory_without_python_files_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("nothing to lint\n")
        with pytest.raises(FileNotFoundError, match="no python files"):
            LintEngine.discover([tmp_path])

    def test_explicit_file_passes_through(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert LintEngine.discover([target]) == [target]


class TestParseErrors:
    def test_unparsable_file_reports_rep000(self):
        result = LintEngine().check_source("def broken(:\n", "bad.py")
        assert [v.code for v in result.violations] == ["REP000"]
        assert not result.clean


class TestReports:
    def test_text_report_lines_and_footer(self):
        violation = _violation()
        text = render_text([violation], checked_files=3, suppressed=2)
        assert violation.render() in text
        assert text.endswith("1 violation(s) in 3 file(s), 2 suppressed")

    def test_json_report_schema(self):
        violations = [_violation(), _violation(code="REP004", line=9)]
        document = json.loads(render_json(violations, 7, suppressed=1))
        assert document["schema"] == JSON_SCHEMA_VERSION == "repro-lint/3"
        assert document["checked_files"] == 7
        assert document["suppressed"] == 1
        assert document["counts"] == {"REP001": 1, "REP004": 1}
        assert document["violations"][0] == {
            "code": "REP001",
            "path": "src/repro/sim/x.py",
            "line": 5,
            "col": 4,
            "message": "test violation",
        }

    def test_violation_render_is_editor_friendly(self):
        assert _violation().render() == (
            "src/repro/sim/x.py:5:4: REP001 test violation"
        )
