"""Per-rule tests for the per-file ``repro lint`` checks (REP001–REP006,
REP010).

Each rule is exercised twice: against the committed fixture corpus in
``tests/lint_corpus`` (violation counts pinned, clean twins must stay
clean) and against small inline sources probing the rule's edges —
allowlists, scope restrictions, and the order-free/scalar escape
hatches that keep the false-positive rate near zero.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine

CORPUS = Path(__file__).resolve().parents[1] / "lint_corpus"

#: (corpus file, expected rule code, expected violation count).
CORPUS_EXPECTATIONS = [
    ("rep001_bad.py", "REP001", 4),
    ("sim/rep002_bad.py", "REP002", 5),
    ("rep003_bad.py", "REP003", 3),
    ("rep004_bad.py", "REP004", 3),
    ("rep005_bad.py", "REP005", 5),
    ("sim/rep006_bad.py", "REP006", 4),
    ("sim/rep010_bad.py", "REP010", 1),
]

CLEAN_FILES = [
    "rep001_clean.py",
    "sim/rep002_clean.py",
    "rep003_clean.py",
    "rep004_clean.py",
    "rep005_clean.py",
    "sim/rep006_clean.py",
    "obs/rep010_clean.py",
    "suppressed.py",
]


def lint(source: str, path: str = "src/repro/sim/module.py"):
    """Codes of the violations in one dedented in-memory module."""
    result = LintEngine().check_source(textwrap.dedent(source), path)
    return [violation.code for violation in result.violations]


def lint_file(relative: str):
    path = CORPUS / relative
    return LintEngine().check_source(
        path.read_text(encoding="utf-8"), path.as_posix()
    )


class TestCorpus:
    @pytest.mark.parametrize(
        "relative, code, count", CORPUS_EXPECTATIONS,
        ids=[code for __, code, __ in CORPUS_EXPECTATIONS],
    )
    def test_bad_fixture_triggers_exactly_its_rule(
        self, relative, code, count
    ):
        result = lint_file(relative)
        assert [v.code for v in result.violations] == [code] * count

    @pytest.mark.parametrize("relative", CLEAN_FILES)
    def test_clean_fixture_is_clean(self, relative):
        assert lint_file(relative).violations == []

    def test_pragma_fixture_counts_as_suppressed(self):
        result = lint_file("suppressed.py")
        assert result.suppressed == 1


class TestRawRngRule:
    def test_flags_numpy_and_stdlib_constructions(self):
        assert lint(
            """
            import random
            import numpy as np

            def f(seed):
                a = np.random.default_rng(seed)
                b = random.random()
                return a, b
            """
        ) == ["REP001", "REP001"]

    def test_resolves_from_import_aliases(self):
        assert lint(
            """
            from numpy.random import default_rng as mk

            def f(seed):
                return mk(seed)
            """
        ) == ["REP001"]

    def test_allowed_inside_the_rng_module(self):
        source = """
            import numpy as np

            def stream(seed):
                return np.random.default_rng(seed)
            """
        assert lint(source, path="src/repro/sim/rng.py") == []
        assert lint(source, path="src/repro/sim/engine.py") == ["REP001"]

    def test_registry_usage_is_clean(self):
        assert lint(
            """
            from repro.sim.rng import RngRegistry

            def f(seed):
                return RngRegistry(seed).stream("a", "b").random()
            """
        ) == []


class TestWallClockRule:
    def test_flags_wall_clock_in_restricted_dirs(self):
        source = """
            import time

            def now():
                return time.time()
            """
        for directory in ("sim", "core", "chaos", "baselines"):
            path = f"src/repro/{directory}/module.py"
            assert lint(source, path=path) == ["REP002"], directory

    def test_scope_is_the_import_closure_of_those_dirs(self):
        # What a deterministic unit may import is deterministic too:
        # ``core`` may import ``sanitize``, ``chaos`` may import
        # ``topology`` (LAYERS), so a clock read there is a finding.
        source = """
            import time

            def stamp():
                return time.time()
            """
        assert lint(source, path="src/repro/sanitize.py") == ["REP002"]
        assert lint(source, path="src/repro/topology/regions.py") == [
            "REP002"
        ]
        assert lint(source, path="src/repro/obs/profiling.py") == []

    def test_ignored_outside_restricted_dirs(self):
        source = """
            import time

            def now():
                return time.time()
            """
        assert lint(source, path="src/repro/experiments/wallclock.py") == []
        assert lint(source, path="tools/bench.py") == []

    def test_flags_environment_access(self):
        assert lint(
            """
            import os

            def mode():
                return os.environ.get("MODE")
            """
        ) == ["REP002"]

    def test_flags_id_ordering(self):
        assert lint(
            """
            def order(xs):
                return sorted(xs, key=id)
            """
        ) == ["REP002"]


class TestUnorderedIterationRule:
    def test_flags_order_sensitive_contexts(self):
        assert lint(
            """
            def f(known):
                pending = set(known)
                listed = list(pending)
                comp = [x for x in pending]
                for x in known.keys() & pending:
                    listed.append(x)
                return listed, comp
            """
        ) == ["REP003", "REP003", "REP003"]

    def test_order_free_consumers_are_clean(self):
        assert lint(
            """
            import math

            def f(known):
                pending = set(known)
                a = sorted(pending)
                b = max(pending)
                c = sum(1 for x in pending)
                d = math.fsum(known[x] for x in pending)
                e = {x for x in pending}
                return a, b, c, d, e
            """
        ) == []

    def test_plain_list_iteration_is_clean(self):
        assert lint(
            """
            def f(items):
                return [x for x in items]
            """
        ) == []


class TestTruthinessOnOptionalRule:
    def test_flags_or_fallback_for_container_annotation(self):
        assert lint(
            """
            def f(bus: "Bus | None" = None):
                bus = bus or object()
                return bus
            """
        ) == ["REP004"]

    def test_flags_truthiness_branch_for_container_annotation(self):
        assert lint(
            """
            def f(bus: "Bus | None" = None):
                if not bus:
                    return None
                return bus
            """
        ) == ["REP004"]

    def test_scalar_annotations_may_use_or(self):
        assert lint(
            """
            def f(name: "str | None" = None, scale: float | None = None):
                label = name or "default"
                factor = scale or 1.0
                return label, factor
            """
        ) == []

    def test_unannotated_flags_only_constructor_fallback(self):
        assert lint(
            """
            def f(config=None, flag=None):
                config = config or dict()
                enabled = flag or True
                return config, enabled
            """
        ) == ["REP004"]

    def test_is_none_form_is_clean(self):
        assert lint(
            """
            def f(bus: "Bus | None" = None):
                bus = bus if bus is not None else object()
                return bus
            """
        ) == []


class TestMutableSharedStateRule:
    def test_flags_mutable_defaults_and_class_literals(self):
        assert lint(
            """
            class Engine:
                cache = {}

            def record(x, log=[]):
                log.append(x)
                return log
            """
        ) == ["REP005", "REP005"]

    def test_slots_and_instance_state_are_clean(self):
        assert lint(
            """
            class Engine:
                __slots__ = ("listeners",)

                def __init__(self):
                    self.listeners = []

            def record(x, log=None):
                log = [] if log is None else log
                log.append(x)
                return log
            """
        ) == []


class TestFloatKeySortRule:
    def test_flags_provably_float_keys(self):
        assert lint(
            """
            import math

            def order(xs, w):
                xs.sort(key=lambda x: w[x] / 3)
                a = sorted(xs, key=lambda x: 0.5 * w[x])
                b = sorted(xs, key=lambda x: math.log(w[x]))
                c = sorted(xs, key=lambda x: -float(w[x]))
                return a, b, c
            """
        ) == ["REP006"] * 4

    def test_tuple_key_is_clean(self):
        assert lint(
            """
            def order(xs, w):
                return sorted(xs, key=lambda x: (w[x] / 3, x))
            """
        ) == []

    def test_unprovable_keys_are_clean(self):
        # Names/attributes/subscripts may be floats, but the rule only
        # fires on syntactically certain floats (zero false positives).
        assert lint(
            """
            def order(xs, w):
                a = sorted(xs, key=lambda x: w[x])
                b = sorted(xs, key=lambda x: x.score)
                c = sorted(xs, key=lambda x: abs(x))
                return a, b, c
            """
        ) == []

    def test_scope_is_sim_core_chaos_only(self):
        source = """
            def order(xs, w):
                return sorted(xs, key=lambda x: w[x] / 3)
            """
        for directory in ("sim", "core", "chaos"):
            path = f"src/repro/{directory}/module.py"
            assert lint(source, path=path) == ["REP006"], directory
        assert lint(source, path="src/repro/experiments/module.py") == []
        assert lint(source, path="src/repro/baselines/module.py") == []


class TestOracleLivenessRule:
    SOURCE = """
        def skip_dead(ctx, target):
            return None if not ctx.is_alive(target) else target
        """

    def test_flags_oracle_calls_in_protocol_code(self):
        for path in ("src/repro/core/module.py", "src/repro/net/node.py",
                     "src/repro/cli.py"):
            assert lint(self.SOURCE, path=path) == ["REP010"], path

    def test_measurement_units_may_ask(self):
        for path in ("src/repro/obs/report.py", "src/repro/sanitize.py",
                     "src/repro/experiments/runner.py"):
            assert lint(self.SOURCE, path=path) == [], path

    def test_defining_or_reading_the_attribute_is_clean(self):
        assert lint(
            """
            class Context:
                def is_alive(self, node_id):
                    return self.alive[node_id]

            def probe(ctx):
                return ctx.is_alive
            """
        ) == []
