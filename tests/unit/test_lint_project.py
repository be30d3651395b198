"""Whole-program index tests: summaries, linking, dispatch, taint.

The per-file rules are covered in ``test_lint_rules.py`` and the
engine machinery in ``test_lint_engine.py``; here the subject is the
project layer underneath REP007-REP009 — module summaries, the linked
call graph with context-aware dispatch, engine-path reachability,
interprocedural taint, and the on-disk cache.  Most tests run on small
synthetic projects (no files needed — summaries take source strings);
a few pin facts about the real tree under ``src/repro``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.graph_rules import (
    ALL_PROJECT_RULES,
    EngineParityRule,
    InterproceduralWallClockRule,
    LayeringRule,
    StreamDisciplineRule,
    unit_of,
)
from repro.lint.project import (
    LintCache,
    ProjectIndex,
    module_name_for,
    source_hash,
    summarize_module,
)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def build_index(modules):
    """Index a synthetic project given ``{module: source}``."""
    summaries = []
    for module, source in modules.items():
        path = module.replace(".", "/") + ".py"
        summaries.append(
            summarize_module(textwrap.dedent(source), path, module)
        )
    return ProjectIndex(summaries)


@pytest.fixture(scope="module")
def real_index():
    """The linked index over the actual ``src/repro`` tree."""
    summaries = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name_for(path, SRC)
        summaries.append(
            summarize_module(path.read_text(), str(path), module)
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
            "def f():\n    return 1\n", "m.py", "m"
        )
        assert json.loads(json.dumps(summary)) == summary

    def test_imports_record_both_forms(self):
        summary = summarize_module(
            "import a.b\nfrom c.d import e\n", "m.py", "m"
        )
        targets = [imp["targets"] for imp in summary["imports"]]
        assert ["a.b"] in targets
        assert any("c.d.e" in t for t in targets)

    def test_function_facts(self):
        source = textwrap.dedent(
            """
            import time

            def f(rngs, flag):
                stream = rngs.stream("net", "loss")
                if flag:
                    stream.random()
                time.time()
                g()

            def g():
                pass
            """
        )
        summary = summarize_module(source, "m.py", "m")
        f = summary["functions"]["f"]
        [draw] = f["draws"]
        assert draw["stream"] == "net.loss"
        assert draw["conditional"] is True
        assert any(b["name"] == "time.time" for b in f["banned"])
        assert any(
            c.get("name") == "m.g" for c in f["calls"] if "name" in c
        )

    def test_unconditional_draw_is_not_conditional(self):
        source = textwrap.dedent(
            """
            def f(rngs):
                stream = rngs.stream("net", "loss")
                return stream.random()
            """
        )
        [draw] = summarize_module(source, "m.py", "m")["functions"][
            "f"
        ]["draws"]
        assert draw["conditional"] is False

    def test_per_member_stream_is_not_shared(self):
        source = textwrap.dedent(
            """
            def f(rngs, node):
                stream = rngs.stream("jitter", node)
                if node:
                    stream.random()
            """
        )
        summary = summarize_module(source, "m.py", "m")
        assert summary["functions"]["f"]["draws"] == []

    def test_phase_emission_with_conditional_kind(self):
        source = textwrap.dedent(
            """
            from obs import PhaseEvent

            def f(sink, late):
                sink.emit(PhaseEvent("a" if late else "b", 0, 0, 0))
            """
        )
        kinds = {
            emit["kind"]
            for emit in summarize_module(source, "m.py", "m")[
                "functions"
            ]["f"]["phase_emits"]
        }
        assert kinds == {"a", "b"}


class TestDispatch:
    BASE_PROJECT = {
        "proj.base": """
            class Engine:
                def __init__(self):
                    self.net = Net()

                def run(self):
                    self.step()
                    self.net.send()

                def step(self):
                    base_step()

            class Net:
                def send(self):
                    pass

            def base_step():
                pass
            """,
        "proj.obj": """
            from proj.base import Engine

            class ObjectEngine(Engine):
                def run(self):
                    super().run()

                def step(self):
                    object_step()

            def object_step():
                pass
            """,
        "proj.arr": """
            from proj.base import Engine

            class ArrayEngine(Engine):
                def run(self):
                    super().run()

                def step(self):
                    array_step()

            def array_step():
                pass
            """,
    }

    def test_self_dispatch_is_context_exact(self):
        index = build_index(self.BASE_PROJECT)
        reached = index.reachable(("proj.obj.ObjectEngine.run",))
        # super().run() lands in Engine.run with the ObjectEngine
        # context preserved, so self.step() binds the override.
        assert "proj.base.Engine.run" in reached
        assert "proj.obj.object_step" in reached
        # the sibling subclass's override must NOT leak in
        assert "proj.arr.array_step" not in reached
        assert "proj.base.base_step" not in reached

    def test_selfattr_resolves_through_inherited_attribute(self):
        # ObjectEngine never assigns self.net; the type comes from the
        # base __init__ via the MRO walk.
        index = build_index(self.BASE_PROJECT)
        reached = index.reachable(("proj.obj.ObjectEngine.run",))
        assert "proj.base.Net.send" in reached

    def test_typed_dispatch_fans_out_to_subclass_overrides(self):
        project = dict(self.BASE_PROJECT)
        project["proj.main"] = """
            from proj.base import Engine

            def drive(engine: Engine):
                engine.step()
            """
        index = build_index(project)
        reached = index.reachable(("proj.main.drive",))
        assert "proj.obj.object_step" in reached
        assert "proj.arr.array_step" in reached
        assert "proj.base.base_step" in reached

    def test_lookup_class_accepts_unique_dot_suffix(self):
        index = build_index(self.BASE_PROJECT)
        assert index.lookup_class("base.Engine") == "proj.base.Engine"
        assert (
            index.transitive_subclasses("proj.base.Engine")
            == {"proj.obj.ObjectEngine", "proj.arr.ArrayEngine"}
        )


class TestTaint:
    def test_taint_propagates_through_indirection(self):
        index = build_index(
            {
                "util": """
                    import time

                    def stamp():
                        return _now()

                    def _now():
                        return time.time()
                    """,
                "proj.sim.log": """
                    from util import stamp

                    def record(log):
                        log.append(stamp())
                    """,
            }
        )
        taint = index.taint_map()
        assert taint["util._now"][0] == "time.time"
        assert taint["util.stamp"][2] == "util._now"
        assert index.taint_chain("proj.sim.log.record", taint) == [
            "proj.sim.log.record",
            "util.stamp",
            "util._now",
        ]

    def test_module_level_code_never_taints(self):
        # repro.sanitize reads os.environ at import time by design;
        # only *function bodies* seed the taint map.
        index = build_index(
            {
                "conf": """
                    import os

                    FLAG = os.environ.get("X")

                    def read():
                        return FLAG
                    """
            }
        )
        assert index.taint_map() == {}


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

    def test_unit_of_uses_the_segment_after_repro(self):
        assert unit_of("repro.sim.engine") == "sim"
        assert unit_of("sim.engine") == "sim"
        assert unit_of("repro.cli") == "cli"

    def test_engine_rules_are_vacuous_without_both_roots(self):
        # No array path in this project -> REP008/REP009 stay silent
        # rather than flagging everything as unpaired.
        index = build_index(
            {
                "sim.engine": """
                    class SimulationEngine:
                        def run(self):
                            pass
                    """
            }
        )
        assert list(StreamDisciplineRule().check(index)) == []
        assert list(EngineParityRule().check(index)) == []

    def test_plan_calls_pair_as_an_equivalence_class(self):
        # plan_delivery on one path and plan_delivery_block on the
        # other satisfies parity — the corpus clean fixture relies on
        # this, and this test pins it directly.
        index = build_index(
            {
                "sim.net": """
                    class Net:
                        def plan_delivery(self, m):
                            return m

                        def plan_delivery_block(self, ms):
                            return ms
                    """,
                "sim.engine": """
                    from sim.net import Net

                    class SimulationEngine:
                        def __init__(self):
                            self.network = Net()

                        def run(self):
                            self.network.plan_delivery(1)
                    """,
                "sim.array_engine": """
                    from sim.net import Net

                    class ArraySteppedEngine:
                        def __init__(self):
                            self.network = Net()

                        def run(self):
                            self.network.plan_delivery_block([1])
                    """,
            }
        )
        assert list(EngineParityRule().check(index)) == []

    def test_interproc_rule_skips_direct_banned_sites(self):
        # A det-package function calling time.time() directly is the
        # per-file REP002's finding; the project rule must not double
        # report it.
        index = build_index(
            {
                "proj.sim.clock": """
                    import time

                    def now():
                        return time.time()
                    """
            }
        )
        assert list(InterproceduralWallClockRule().check(index)) == []

    def test_all_project_rules_have_unique_codes(self):
        codes = [rule.code for rule in ALL_PROJECT_RULES]
        assert len(codes) == len(set(codes))


class TestRealTree:
    OBJECT_ROOTS = (
        "sim.engine.SimulationEngine.run",
        "sim.engine.SimulationEngine._step_processes",
    )
    ARRAY_ROOTS = (
        "sim.array_engine.ArraySteppedEngine.run",
        "sim.array_engine.ArraySteppedEngine._step_processes",
        "core.array_stepper.HierarchicalArrayStepper.step",
    )

    def test_index_covers_the_tree(self, real_index):
        stats = real_index.stats()
        assert stats["modules"] >= 70
        assert stats["functions"] >= 700
        assert stats["import_edges"] >= 400

    def test_shared_protocol_core_reachable_from_both_paths(
        self, real_index
    ):
        obj = real_index.reachable(self.OBJECT_ROOTS)
        arr = real_index.reachable(self.ARRAY_ROOTS)
        for fq in (
            "repro.core.hierarchical_gossip.HierarchicalGossipProcess"
            "._maybe_advance",
            "repro.core.hierarchical_gossip.HierarchicalGossipProcess"
            "._emit_finalize",
            # The one admission routine: ``on_message`` on the object
            # path, grouped block delivery on the array path.
            "repro.core.hierarchical_gossip.HierarchicalGossipProcess"
            ".absorb_payloads",
        ):
            assert fq in obj, fq
            assert fq in arr, fq

    def test_array_only_entry_points_stay_off_the_object_path(
        self, real_index
    ):
        obj = real_index.reachable(self.OBJECT_ROOTS)
        assert not any(fq.endswith(".submit_block") for fq in obj)

    def test_plan_delivery_block_reachable_via_inherited_attr(
        self, real_index
    ):
        arr = real_index.reachable(
            ("sim.array_engine.ArraySteppedEngine.submit_block",)
        )
        assert any(fq.endswith(".plan_delivery_block") for fq in arr)

    def test_src_tree_has_no_project_rule_findings(self, real_index):
        for rule in ALL_PROJECT_RULES:
            assert list(rule.check(real_index)) == [], rule.code


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
