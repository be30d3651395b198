"""Import-graph tests: summaries, linking, the layering spec, the cache.

The per-file rules are covered in ``test_lint_rules.py`` and the
engine machinery in ``test_lint_engine.py``; here the subject is the
project layer underneath REP007 — module naming, import digests, the
linked import edges, ``LAYERS`` and the closure REP002's scope is read
off — and the on-disk cache.  Most tests run on small synthetic
projects (no files needed — summaries take source strings); a few pin
facts about the real tree under ``src/repro``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.graph_rules import (
    ALL_PROJECT_RULES,
    DETERMINISTIC_UNITS,
    LAYERS,
    LayeringRule,
)
from repro.lint.project import (
    LintCache,
    ProjectIndex,
    module_name_for,
    source_hash,
    summarize_module,
    unit_of,
)
from repro.lint.rules import ALL_RULES

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def build_index(modules):
    """Index a synthetic project given ``{module: source}``; a name
    ending in ``.__init__`` is that package's ``__init__.py``."""
    summaries = []
    for module, source in modules.items():
        path = module.replace(".", "/") + ".py"
        summaries.append(summarize_module(
            textwrap.dedent(source), path, module.removesuffix(".__init__")
        ))
    return ProjectIndex(summaries)


@pytest.fixture(scope="module")
def real_index():
    """The linked index over the actual ``src/repro`` tree."""
    summaries = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name_for(path, SRC)
        summaries.append(
            summarize_module(path.read_text(), path.as_posix(), module)
        )
    return ProjectIndex(summaries)


class TestNamingAndHashing:
    def test_module_name_anchors_on_repro(self):
        path = SRC / "repro" / "sim" / "engine.py"
        assert module_name_for(path, SRC) == "repro.sim.engine"

    def test_module_name_relative_to_base_without_repro(self, tmp_path):
        path = tmp_path / "sim" / "engine.py"
        assert module_name_for(path, tmp_path) == "sim.engine"

    def test_init_module_drops_the_filename(self):
        path = SRC / "repro" / "sim" / "__init__.py"
        assert module_name_for(path, SRC) == "repro.sim"

    def test_source_hash_is_stable_and_content_addressed(self):
        assert source_hash("x = 1\n") == source_hash("x = 1\n")
        assert source_hash("x = 1\n") != source_hash("x = 2\n")
        assert source_hash("").startswith("sha256:")


class TestSummaries:
    def test_summary_is_json_serializable(self):
        summary = summarize_module(
            "import os\n\ndef f():\n    return 1\n", "m.py", "m"
        )
        assert json.loads(json.dumps(summary)) == summary

    def test_imports_record_both_forms(self):
        summary = summarize_module(
            "import a.b\nfrom c.d import e\n", "m.py", "m"
        )
        targets = [imp["targets"] for imp in summary["imports"]]
        assert ["a.b"] in targets
        assert any("c.d.e" in t for t in targets)

    def test_relative_import_edges_resolve_against_the_package(self):
        # ``from .. import obs`` means the same thing in a package's
        # __init__ and in a module beside it; so does ``from . import``.
        index = build_index(
            {
                "repro.obs.__init__": "",
                "repro.sim.__init__": "from .. import obs\n",
                "repro.sim.engine": "from .. import obs\n",
                "repro.sim.network": "from . import engine\n",
                "repro.sim.sub.__init__": "from . import leaf\n",
                "repro.sim.sub.leaf": "",
            }
        )
        assert sorted(index.import_edges) == [
            ("repro.sim", "repro.obs", 1),
            ("repro.sim.engine", "repro.obs", 1),
            ("repro.sim.network", "repro.sim.engine", 1),
            ("repro.sim.sub", "repro.sim.sub.leaf", 1),
        ]
        breaches = list(LayeringRule().check(index))
        assert [v.path for v in breaches] == [
            "repro/sim/__init__.py", "repro/sim/engine.py",
        ]


class TestProjectRules:
    def test_layering_rule_on_synthetic_violation(self):
        index = build_index(
            {
                "sim.engine": "import obs.metrics\n",
                "obs.metrics": "ROWS = []\n",
            }
        )
        [violation] = list(LayeringRule().check(index))
        assert violation.code == "REP007"
        assert "'sim' must not import 'obs'" in violation.message

    def test_constrained_unit_may_import_only_its_allow_list(self):
        # ``helpers`` is no layering unit at all: importing it from a
        # constrained unit is a breach, from an unconstrained one (cli)
        # it is not, and lazy function-level imports count.
        index = build_index(
            {
                "repro.core.clock": """
                    def now():
                        from repro.helpers import stamp
                        return stamp()
                    """,
                "repro.cli": "from repro.helpers import stamp\n",
                "repro.helpers": "def stamp():\n    return 0\n",
            }
        )
        [violation] = list(LayeringRule().check(index))
        assert violation.path == "repro/core/clock.py"
        assert violation.line == 3
        assert "'core' must not import 'helpers'" in violation.message

    def test_unit_of_uses_the_segment_after_repro(self):
        assert unit_of("repro.sim.engine") == "sim"
        assert unit_of("sim.engine") == "sim"
        assert unit_of("repro.cli") == "cli"

    def test_deterministic_units_are_closed_under_imports(self):
        # The closure argument: every unit REP002 polices is itself
        # constrained, and nothing it may import lies outside the set.
        assert DETERMINISTIC_UNITS == {
            "sim", "core", "chaos", "baselines", "sanitize", "topology",
        }
        for unit in DETERMINISTIC_UNITS:
            assert LAYERS[unit] <= DETERMINISTIC_UNITS, unit

    def test_all_project_rules_have_unique_codes(self):
        codes = [rule.code for rule in (*ALL_RULES, *ALL_PROJECT_RULES)]
        assert len(codes) == len(set(codes))


class TestRealTree:
    def test_index_covers_the_tree(self, real_index):
        stats = real_index.stats()
        assert stats["modules"] >= 70
        assert stats["import_edges"] >= 400

    def test_src_tree_has_no_project_rule_findings(self, real_index):
        for rule in ALL_PROJECT_RULES:
            assert list(rule.check(real_index)) == [], rule.code

    def test_layers_names_only_units_that_exist(self, real_index):
        # A row for a deleted package (mib, viz, monitoring) is dead spec.
        units = {unit_of(module) for module in real_index.summaries}
        assert set(LAYERS).union(*LAYERS.values()) <= units


class TestCache:
    def test_round_trip(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache = LintCache(cache_file)
        entry = {"hash": "sha256:abc", "violations": [], "pragmas": []}
        cache.put("a.py", entry)
        cache.save()

        reloaded = LintCache(cache_file)
        assert reloaded.get("a.py", "sha256:abc") == entry
        assert reloaded.hits == 1

    def test_hash_mismatch_is_a_miss(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache = LintCache(cache_file)
        cache.put("a.py", {"hash": "sha256:abc"})
        cache.save()

        reloaded = LintCache(cache_file)
        assert reloaded.get("a.py", "sha256:OTHER") is None
        assert reloaded.misses == 1

    def test_unknown_schema_is_discarded(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(
            json.dumps({"schema": "something-else/9", "files": {}})
        )
        cache = LintCache(cache_file)
        assert cache.get("a.py", "sha256:abc") is None

    def test_corrupt_cache_is_discarded(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        cache = LintCache(cache_file)
        assert cache.get("a.py", "sha256:abc") is None
