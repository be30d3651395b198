"""The project's import graph, the one whole-program fact the lint uses.

The per-file rules (:mod:`repro.lint.rules`) see one ``ast.Module`` at a
time; the layering rule (REP007, :mod:`repro.lint.graph_rules`) needs to
know who imports whom.  This module builds that picture:

* :func:`summarize_module` — a pure function from one file's source to
  a JSON-serializable :data:`ModuleSummary`: its dotted name and every
  import in it (module-level and lazy), with line numbers.  Pure means
  cacheable: the engine keys summaries by content hash
  (:class:`LintCache`) so a run given ``--cache FILE`` re-parses only
  what changed.
* :class:`ProjectIndex` — links the summaries into intra-project import
  edges ``(importing module, imported module, line)``.

There is no call graph.  Which code must be deterministic is decided by
the import closure of :data:`repro.lint.graph_rules.LAYERS`, so a
deterministic unit cannot reach a helper outside that closure at all
(see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "ModuleSummary",
    "LintCache",
    "ProjectIndex",
    "module_name_for",
    "summarize_module",
    "source_hash",
    "unit_of",
]

#: A module summary is a plain JSON-serializable dict (cacheable).
ModuleSummary = dict


def source_hash(source: str) -> str:
    """Content hash keying the on-disk cache (algorithm-prefixed)."""
    return "sha256:" + hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: Path, base: Path) -> str:
    """Dotted module name of ``path`` as the index will know it.

    Files inside a ``repro`` package are anchored there
    (``src/repro/sim/engine.py`` -> ``repro.sim.engine``) so names match
    real import targets; anything else (the fixture corpus) is named
    relative to the lint invocation root (``tests/lint_corpus/sim/
    rep007_bad.py`` linted as ``tests/lint_corpus`` ->
    ``sim.rep007_bad``).
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
    else:
        try:
            rel = path.relative_to(base if base.is_dir() else base.parent)
        except ValueError:
            rel = Path(path.name)
        dotted = list(rel.parts)
        if dotted and dotted[-1].endswith(".py"):
            dotted[-1] = dotted[-1][: -len(".py")]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or path.stem


def unit_of(module: str) -> str:
    """The layering unit of a dotted module name.

    ``repro``-anchored names use the segment after the package root
    (``repro.sim.engine`` -> ``sim``, ``repro.sanitize`` ->
    ``sanitize``); corpus-style names use their first segment.
    """
    parts = module.split(".")
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[anchor + 1:]
        return rest[0] if rest else "repro"
    return parts[0]


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> list[dict]:
    """Every import in the module (module-level and lazy), resolved to
    candidate dotted targets.  ``from pkg import name`` records both
    ``pkg.name`` and ``pkg`` — link time keeps whichever is a module.

    A relative import resolves against the containing package, which
    for a package's ``__init__`` (``is_package``) is the module itself.
    """
    package = module.split(".")
    if not is_package:
        package = package[:-1]
    records: list[dict] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                records.append(
                    {"targets": [alias.name], "line": node.lineno}
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # level 1 = the containing package, each extra level
                # pops one
                anchor = package[: len(package) - (node.level - 1)]
                if node.module:
                    anchor = anchor + node.module.split(".")
                base = ".".join(anchor)
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                targets = [base]
                if alias.name != "*":
                    targets.insert(0, f"{base}.{alias.name}")
                records.append({"targets": targets, "line": node.lineno})
    return records


def summarize_module(
    source: str, path: str, module: str, tree: ast.Module | None = None
) -> ModuleSummary:
    """The JSON-serializable import digest of one module."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    is_package = path.rsplit("/", 1)[-1] == "__init__.py"
    return {
        "module": module,
        "path": path,
        "imports": _collect_imports(tree, module, is_package),
    }


class ProjectIndex:
    """Module summaries linked into intra-project import edges."""

    def __init__(self, summaries: list[ModuleSummary]):
        self.summaries = {s["module"]: s for s in summaries}
        #: (importing module, imported module, line) — intra-project only
        self.import_edges: list[tuple[str, str, int]] = []
        for module, summary in self.summaries.items():
            for record in summary["imports"]:
                for target in record["targets"]:
                    resolved = self._module_of(target)
                    if resolved is not None and resolved != module:
                        self.import_edges.append(
                            (module, resolved, record["line"])
                        )
                        break

    def _module_of(self, dotted: str) -> str | None:
        """The indexed module a dotted import target lands in."""
        probe = dotted
        while probe:
            if probe in self.summaries:
                return probe
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return None

    def path_of(self, module: str) -> str:
        return self.summaries[module]["path"]

    def stats(self) -> dict:
        return {
            "modules": len(self.summaries),
            "import_edges": len(self.import_edges),
        }


class LintCache:
    """Content-hash-keyed per-file cache of lint work (``--cache FILE``).

    One JSON document, one entry per file path, each keyed by the
    file's content hash and holding the *raw* (pre-pragma) per-file
    violations, the inline pragmas and the module summary.  REP007
    violations are **never** cached — they depend on every file, so
    they are recomputed from the (cached) summaries each run.
    """

    # Bumped whenever the rule set or an entry's shape changes: an
    # entry written by another version must not satisfy this run.
    SCHEMA = "repro-lint-cache/5"

    def __init__(self, path: Path | None):
        self.path = path
        self.entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        if path is not None and path.exists():
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                document = {}
            if document.get("schema") == self.SCHEMA:
                entries = document.get("files")
                if isinstance(entries, dict):
                    self.entries = entries

    def get(self, path: str, content_hash: str) -> dict | None:
        entry = self.entries.get(path)
        if entry is not None and entry.get("hash") == content_hash:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, path: str, entry: dict) -> None:
        self.entries[path] = entry
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        document = {
            "schema": self.SCHEMA,
            "files": self.entries,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(document, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)
        self._dirty = False
