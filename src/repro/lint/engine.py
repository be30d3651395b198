"""The ``repro lint`` engine: walk files, run rules, apply pragmas.

The engine runs in two layers:

* **Per-file** — parse each module once, run the AST rules
  (REP001-REP006, REP010) and collect the module's imports.  All of
  this is pure in the file's content, so with ``--cache FILE`` it is
  kept on disk keyed by content hash
  (:class:`repro.lint.project.LintCache`).  Raw (pre-pragma) violations
  are what gets cached, so pragma changes never invalidate entries.
* **Project** — link the import digests into a
  :class:`~repro.lint.project.ProjectIndex` and run the layering rule
  (REP007).  It depends on every file, so its violations are recomputed
  each run and never cached.

One suppression mechanism: the **inline pragma**.  ``# repro-lint: ok``
on the offending line silences every rule for that line;
``# repro-lint: ok[REP001,REP003]`` silences only the named rules.  The
justification goes in the same comment.

Exit-code contract (see :func:`repro.lint.cli.main`): 0 = clean,
1 = violations (including files that fail to parse, reported as
``REP000``), 2 = usage errors such as a path that does not exist or a
directory with no python files under it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.graph_rules import ALL_PROJECT_RULES
from repro.lint.project import (
    LintCache,
    ProjectIndex,
    module_name_for,
    source_hash,
    summarize_module,
)
from repro.lint.rules import ALL_RULES, Rule
from repro.lint.violations import Violation

__all__ = ["LintEngine", "LintResult", "parse_pragmas"]

#: ``# repro-lint: ok`` / ``# repro-lint: ok[REP001, REP004]``
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*ok(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


def parse_pragmas(source: str) -> dict[int, frozenset[str] | None]:
    """Line number -> suppressed codes (None = all rules) for one file."""
    pragmas: dict[int, frozenset[str] | None] = {}
    for line_number, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            pragmas[line_number] = None
        else:
            pragmas[line_number] = frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            )
    return pragmas


def _pragmas_to_json(
    pragmas: dict[int, frozenset[str] | None]
) -> dict[str, list[str] | None]:
    return {
        str(line): (sorted(codes) if codes is not None else None)
        for line, codes in pragmas.items()
    }


def _pragmas_from_json(
    raw: dict[str, list[str] | None]
) -> dict[int, frozenset[str] | None]:
    return {
        int(line): (frozenset(codes) if codes is not None else None)
        for line, codes in raw.items()
    }


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    violations: list[Violation] = field(default_factory=list)
    checked_files: int = 0
    suppressed: int = 0
    #: ``ProjectIndex.stats()`` when the project pass ran.
    graph_stats: dict | None = None
    #: ``{"enabled": bool, "hits": int, "misses": int}`` when caching.
    cache_info: dict | None = None

    @property
    def clean(self) -> bool:
        return not self.violations


class LintEngine:
    """Run the per-file and project rule sets over files/directories."""

    def __init__(
        self,
        rules: tuple[Rule, ...] = ALL_RULES,
        cache: LintCache | None = None,
        select: frozenset[str] | None = None,
    ):
        self.rules = tuple(rules)
        self.cache = cache
        self.select = select

    # -- file discovery -------------------------------------------------
    @staticmethod
    def discover(paths: list[Path]) -> list[Path]:
        """All ``*.py`` files under ``paths`` (files pass through).

        Hidden directories and ``__pycache__`` *below* a directory
        argument are skipped.  Raises :class:`FileNotFoundError` for a
        path that does not exist and for a directory with no python
        file under it — a mistyped path silently linting nothing would
        defeat the gate.
        """
        return [
            file_path
            for file_path, _ in LintEngine._discover_with_bases(paths)
        ]

    @staticmethod
    def _discover_with_bases(
        paths: list[Path],
    ) -> list[tuple[Path, Path]]:
        """(file, invocation base) pairs — the base anchors corpus-style
        module naming (:func:`repro.lint.project.module_name_for`)."""
        files: list[tuple[Path, Path]] = []
        seen: set[Path] = set()

        def add(file_path: Path, base: Path) -> None:
            key = file_path.resolve()
            if key not in seen:
                seen.add(key)
                files.append((file_path, base))

        for path in paths:
            if not path.exists():
                raise FileNotFoundError(f"no such file or directory: {path}")
            if path.is_file():
                add(path, path)
                continue
            found = [
                candidate for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.relative_to(path).parts
                )
            ]
            if not found:
                raise FileNotFoundError(f"no python files under: {path}")
            for candidate in found:
                add(candidate, path)
        return files

    # -- checking -------------------------------------------------------
    def check_source(self, source: str, path: str) -> LintResult:
        """Lint one in-memory module with the per-file rules only (the
        unit the rule tests drive; no cache, no project pass)."""
        result = LintResult(checked_files=1)
        raw, pragmas, _ = self._analyze(source, path, module="__lint__")
        for violation in raw:
            self._file_violation(result, violation, pragmas)
        result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return result

    def check_paths(self, paths: list[Path]) -> LintResult:
        """Lint every python file under ``paths``."""
        result = LintResult()
        summaries: list[dict] = []
        pragmas_by_path: dict[str, dict] = {}
        for file_path, base in self._discover_with_bases(paths):
            source = file_path.read_text(encoding="utf-8")
            path_str = file_path.as_posix()
            entry = self._entry_for(file_path, base, source, path_str)
            result.checked_files += 1
            pragmas = _pragmas_from_json(entry["pragmas"])
            pragmas_by_path[path_str] = pragmas
            if entry["summary"] is not None:
                summaries.append(entry["summary"])
            for raw in entry["violations"]:
                violation = Violation(**raw)
                if self.select and violation.code not in self.select:
                    continue
                self._file_violation(result, violation, pragmas)
        self._project_pass(result, summaries, pragmas_by_path)
        if self.cache is not None:
            self.cache.save()
            result.cache_info = {
                "enabled": True,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return result

    # -- internals ------------------------------------------------------
    def _analyze(
        self, source: str, path: str, module: str
    ) -> tuple[list[Violation], dict, dict | None]:
        """(raw violations, pragmas, module summary) for one file."""
        pragmas = parse_pragmas(source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [Violation(
                code="REP000",
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )], pragmas, None
        raw: list[Violation] = []
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            raw.extend(rule.check(tree, path))
        summary = summarize_module(source, path, module, tree=tree)
        return raw, pragmas, summary

    def _entry_for(
        self, file_path: Path, base: Path, source: str, path_str: str
    ) -> dict:
        """The (possibly cached) per-file analysis entry."""
        content_hash = source_hash(source)
        if self.cache is not None:
            cached = self.cache.get(path_str, content_hash)
            if cached is not None:
                return cached
        module = module_name_for(file_path, base)
        raw, pragmas, summary = self._analyze(source, path_str, module)
        entry = {
            "hash": content_hash,
            "violations": [
                {
                    "code": v.code, "path": v.path, "line": v.line,
                    "col": v.col, "message": v.message,
                }
                for v in raw
            ],
            "pragmas": _pragmas_to_json(pragmas),
            "summary": summary,
        }
        if self.cache is not None:
            self.cache.put(path_str, entry)
        return entry

    def _file_violation(
        self,
        result: LintResult,
        violation: Violation,
        pragmas: dict[int, frozenset[str] | None],
    ) -> None:
        suppressed_codes = pragmas.get(violation.line, frozenset())
        if suppressed_codes is None or (
            violation.code in suppressed_codes
        ):
            result.suppressed += 1
        else:
            result.violations.append(violation)

    def _project_pass(
        self,
        result: LintResult,
        summaries: list[dict],
        pragmas_by_path: dict[str, dict],
    ) -> None:
        rules = [
            rule for rule in ALL_PROJECT_RULES
            if self.select is None or rule.code in self.select
        ]
        if not rules or not summaries:
            return
        index = ProjectIndex(summaries)
        result.graph_stats = index.stats()
        for rule in rules:
            for violation in rule.check(index):
                pragmas = pragmas_by_path.get(violation.path, {})
                self._file_violation(result, violation, pragmas)
