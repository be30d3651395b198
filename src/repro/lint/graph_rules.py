"""The layering spec (:data:`LAYERS`) and the rule that enforces it.

:data:`LAYERS` is the one table that says which code must be
deterministic.  It names, per package unit, the other units it may
import, and two things are read off it:

* **REP007** — every intra-project import edge (including lazy
  function-level imports) of a listed unit must stay inside the unit or
  its allow-list.  The load-bearing constraints: ``sim`` imports nothing
  (it is the substrate), ``core`` sees only ``sim``/``sanitize``, and
  ``obs`` is a pure consumer — nothing below the experiment layer may
  import it.
* **REP002's scope** — :data:`DETERMINISTIC_UNITS`, the closure of the
  simulation-critical units under their allow-lists.  Because a listed
  unit can import *only* its allow-list, code in the closure cannot
  reach a wall-clock read through a helper in another module: either
  the helper is inside the closure, where the per-file REP002 flags the
  read itself, or importing it is a REP007 breach.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.project import ProjectIndex, unit_of
from repro.lint.violations import Violation

__all__ = [
    "ALL_PROJECT_RULES",
    "DETERMINISTIC_UNITS",
    "LAYERS",
    "LayeringRule",
]

#: Allowed intra-project imports per package unit (the layering spec).
#: A unit absent from this map (``cli``, ``repro``'s root re-exports,
#: ``__main__``) is unconstrained as an *importer*; a listed unit may
#: import its own modules and the units named here, nothing else of the
#: project.
LAYERS: dict[str, frozenset[str]] = {
    # the deterministic substrate: imports nothing project-internal
    "sim": frozenset(),
    "core": frozenset({"sim", "sanitize"}),
    "sanitize": frozenset({"core"}),
    "topology": frozenset({"sim"}),
    "analysis": frozenset({"core", "sim"}),
    "baselines": frozenset({"core", "sanitize", "sim"}),
    "chaos": frozenset({"core", "sim", "topology"}),
    # process-exit callbacks: stdlib-only, imports nothing internal
    "shutdown": frozenset(),
    # obs is a pure consumer of the layers below the experiment stack
    # (its metrics registry is what net's exposition endpoint serves)
    "obs": frozenset({"core", "sanitize", "sim"}),
    # the live UDP runtime: hosts core protocols, reports through obs
    "net": frozenset({"core", "obs", "sanitize", "shutdown", "sim"}),
    "experiments": frozenset({
        "analysis", "baselines", "chaos", "core", "obs", "sanitize",
        "shutdown", "sim", "topology",
    }),
    # the linter itself never imports the runtime it checks
    "lint": frozenset(),
}


def _import_closure(roots: frozenset[str]) -> frozenset[str]:
    """``roots`` plus every unit they may (transitively) import."""
    closure: set[str] = set()
    frontier = sorted(roots)
    while frontier:
        unit = frontier.pop()
        if unit not in closure:
            closure.add(unit)
            frontier.extend(LAYERS[unit])
    return frozenset(closure)


#: The units a simulated run executes: the simulation-critical packages
#: and everything their allow-lists let them import.  A run must be
#: byte-identical from its seed, so REP002 bans wall-clock and entropy
#: reads in all of them.
DETERMINISTIC_UNITS = _import_closure(
    frozenset({"sim", "core", "chaos", "baselines"})
)


class LayeringRule:
    """REP007: the declarative import-layering spec."""

    code = "REP007"
    summary = "import crosses the architectural layering spec (LAYERS)"

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for importer, imported, line in index.import_edges:
            importer_unit = unit_of(importer)
            imported_unit = unit_of(imported)
            allowed = LAYERS.get(importer_unit)
            if allowed is None:
                continue  # unconstrained importer (cli, package root)
            if imported_unit == importer_unit or imported_unit in allowed:
                continue
            permitted = ", ".join(sorted(allowed)) or "nothing"
            yield Violation(
                code=self.code,
                path=index.path_of(importer),
                line=line,
                col=0,
                message=(
                    f"'{importer_unit}' must not import "
                    f"'{imported_unit}' (module {imported}); the "
                    f"layering spec allows '{importer_unit}' to import "
                    f"only: {permitted}. Move the dependency below the "
                    f"line or invert it by injecting the collaborator "
                    f"from the composition root"
                ),
            )


#: Rules that run once over the linked :class:`ProjectIndex`.
ALL_PROJECT_RULES = (LayeringRule(),)
