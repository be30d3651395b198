"""Violation records and report formatting for the repro linter.

A violation is one rule firing at one source location.  The engine
collects them across files and renders either a human-readable text
report (one ``path:line:col: CODE message`` line each, grep- and
editor-friendly) or a machine-readable JSON document with a stable
schema (``repro-lint/3``) for CI tooling.

Beside the violations the document carries ``graph`` (module and
import-edge counts from the project index) and ``cache`` (content-hash
cache hits/misses, ``null`` without ``--cache``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Violation", "render_text", "render_json", "JSON_SCHEMA_VERSION"]

#: Bumped whenever the JSON document shape changes incompatibly.
JSON_SCHEMA_VERSION = "repro-lint/3"


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    code: str       #: Rule identifier, e.g. ``"REP001"``.
    path: str       #: Posix-style path of the offending file.
    line: int       #: 1-based source line.
    col: int        #: 0-based column offset (ast convention).
    message: str    #: Human-readable explanation with the fix direction.

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _stat_lines(stats: dict | None) -> list[str]:
    """Human-readable analyzer bookkeeping for the text report."""
    if not stats:
        return []
    lines: list[str] = []
    cache = stats.get("cache")
    if cache and cache.get("enabled"):
        lines.append(
            f"cache: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es)"
        )
    graph = stats.get("graph")
    if graph:
        lines.append(
            f"graph: {graph.get('modules', 0)} modules, "
            f"{graph.get('import_edges', 0)} import edges"
        )
    return lines


def render_text(
    violations: list[Violation],
    checked_files: int,
    suppressed: int = 0,
    stats: dict | None = None,
) -> str:
    """The text report: one line per violation plus a summary footer."""
    lines = [violation.render() for violation in violations]
    lines.extend(_stat_lines(stats))
    summary = (
        f"{len(violations)} violation(s) in {checked_files} file(s)"
        + (f", {suppressed} suppressed" if suppressed else "")
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    violations: list[Violation],
    checked_files: int,
    suppressed: int = 0,
    stats: dict | None = None,
) -> str:
    """The JSON report (schema ``repro-lint/3``)."""
    stats = stats if stats is not None else {}
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    document = {
        "schema": JSON_SCHEMA_VERSION,
        "checked_files": checked_files,
        "suppressed": suppressed,
        "counts": dict(sorted(counts.items())),
        "violations": [
            {
                "code": violation.code,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
            }
            for violation in violations
        ],
        "graph": stats.get("graph"),
        "cache": stats.get("cache"),
    }
    return json.dumps(document, indent=2, sort_keys=False)
