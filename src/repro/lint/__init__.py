"""Custom determinism/invariant static analysis for the reproduction.

``repro lint`` (also ``make lint``) runs repo-specific rules that
guard the codebase's two load-bearing properties — byte-determinism
across ``--jobs`` counts and the paper's no-double-counting constraint —
at commit time instead of leaving them to end-to-end golden tests.
The per-file AST rules (REP001-REP006,
:mod:`repro.lint.rules`) are joined by one whole-program rule, the
import-layering spec (REP007, :mod:`repro.lint.graph_rules`), whose
``LAYERS`` table also decides which units REP002 holds to determinism.
See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the closure
argument and the table of planted defects each guard catches, and
:mod:`repro.sanitize` for the matching runtime checks.
"""

from repro.lint.engine import LintEngine, LintResult
from repro.lint.graph_rules import ALL_PROJECT_RULES, LAYERS, LayeringRule
from repro.lint.project import LintCache, ProjectIndex, summarize_module
from repro.lint.rules import ALL_RULES, Rule, rules_by_code
from repro.lint.violations import (
    JSON_SCHEMA_VERSION,
    Violation,
    render_json,
    render_text,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "JSON_SCHEMA_VERSION",
    "LAYERS",
    "LayeringRule",
    "LintCache",
    "LintEngine",
    "LintResult",
    "ProjectIndex",
    "Rule",
    "Violation",
    "render_json",
    "render_text",
    "rules_by_code",
    "summarize_module",
]
