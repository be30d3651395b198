"""Argument handling for the ``repro lint`` CLI verb.

Kept separate from :mod:`repro.cli` so the linter stays importable (and
testable) without the experiment stack, and so ``repro.cli`` only pays
for the import when the verb is actually used.

Options: ``--format text|json``, ``--select`` (alias ``--rules``) to run
only the named rule codes, ``--list-rules``, and ``--cache FILE`` — a
content-hash cache that lets a second run over an unchanged tree skip
parsing.  A run without ``--cache`` reads and writes no cache.

Exit codes: 0 = no unsuppressed violations, 1 = violations found
(including unparsable files), 2 = usage error (unknown rule or option,
missing path, a directory with no python files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintEngine
from repro.lint.graph_rules import ALL_PROJECT_RULES
from repro.lint.project import LintCache
from repro.lint.rules import ALL_RULES
from repro.lint.violations import render_json, render_text

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", "--rules", dest="select", default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="FILE",
        help="content-hash cache file: unchanged files are not "
             "re-parsed on the next run (default: no cache)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the rule codes and summaries, then exit",
    )


def _known_codes() -> dict[str, str]:
    """Code -> summary over per-file and project rules."""
    return {
        rule.code: rule.summary for rule in (*ALL_RULES, *ALL_PROJECT_RULES)
    }


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code, summary in sorted(_known_codes().items()):
            print(f"{code}  {summary}")
        return 0

    select: frozenset[str] | None = None
    if args.select is not None:
        known = _known_codes()
        requested = []
        for code in args.select.split(","):
            code = code.strip()
            if code not in known:
                print(
                    f"repro lint: unknown rule {code!r}; known: "
                    f"{', '.join(sorted(known))}",
                    file=sys.stderr,
                )
                return 2
            requested.append(code)
        select = frozenset(requested)

    cache = LintCache(Path(args.cache)) if args.cache is not None else None
    engine = LintEngine(cache=cache, select=select)
    try:
        result = engine.check_paths([Path(path) for path in args.paths])
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2

    stats = {"graph": result.graph_stats, "cache": result.cache_info}
    renderer = render_json if args.format == "json" else render_text
    print(renderer(result.violations, result.checked_files,
                   result.suppressed, stats=stats))
    return 0 if result.clean else 1


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism/invariant lint for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
