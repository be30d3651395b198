"""Repo-specific determinism and invariant lint rules, one file at a time
(REP001-REP006).

Each rule is a small, self-contained AST pass.  They encode the two
load-bearing guarantees of this reproduction — byte-determinism across
``--jobs`` counts and the paper's Section 2 no-double-counting
constraint — as properties checkable at commit time instead of only by
end-to-end golden tests:

* **REP001** — all randomness flows through
  :class:`repro.sim.rng.RngRegistry` / ``derive_seed``.  A raw
  ``random.*`` or ``numpy.random.*`` draw creates a stream the registry
  cannot replay, so adding one silently changes every later draw.
* **REP002** — no wall-clock or other nondeterminism sources
  (``time.time``, ``datetime.now``, ``os.urandom``, ``os.environ``
  branching, ``id()``-based ordering, ``uuid``/``secrets``) in any unit
  a simulated run executes: ``sim``, ``core``, ``chaos``, ``baselines``
  and whatever the layering spec lets those import
  (:data:`repro.lint.graph_rules.DETERMINISTIC_UNITS`).
* **REP003** — no order-sensitive iteration over unordered ``set`` /
  ``frozenset`` / ``dict.keys()``-view expressions: elements reaching
  RNG draws, message emission or serialization in hash order make runs
  interpreter- and history-dependent.  Iteration feeding an
  order-insensitive consumer (``sorted``, ``sum``, ``min``/``max``,
  ``len``, ``any``/``all``, ``set``/``frozenset``) is allowed.
* **REP004** — truthiness checks on ``None``-defaulted parameters of
  container-like type where ``is None`` was meant: an *empty* container
  (``len() == 0``) is falsy and silently takes the default branch — the
  PR 2 ``RoundBus`` bug class.
* **REP005** — mutable default arguments and class-body mutable literal
  attributes: both are shared across calls / instances and leak state
  between runs, breaking run-to-run reproducibility.
* **REP006** — ``sorted``/``.sort`` with a lambda key that provably
  yields a bare float in the simulation-critical packages: Python's
  sort is stable, so members with *equal* float keys keep their input
  order — which is exactly the history/hash-order dependence REP003
  guards against, smuggled in through a tie.  A tuple key with a stable
  secondary component breaks ties deterministically and is exempt.

Every rule supports the ``# repro-lint: ok`` / ``# repro-lint: ok[CODE]``
inline pragma (see :mod:`repro.lint.engine`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.lint.graph_rules import DETERMINISTIC_UNITS
from repro.lint.violations import Violation

__all__ = ["Rule", "ALL_RULES", "rules_by_code"]

#: The one sanctioned raw-RNG construction site (REP001 allowlist).
RNG_MODULE_SUFFIXES = ("repro/sim/rng.py",)


class Rule:
    """Base class: one lint rule over one parsed module."""

    code = "REP000"
    summary = "abstract rule"

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix-style)."""
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, node: ast.AST, path: str, message: str) -> Violation:
        return Violation(
            code=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _path_units(path: str) -> frozenset[str]:
    """The layering-unit names on a posix path: its directories and the
    file's own stem (``repro/sanitize.py`` is the unit ``sanitize``)."""
    return frozenset(
        part.removesuffix(".py") for part in path.split("/") if part
    )


class ImportMap:
    """Alias -> canonical dotted-module map for one module.

    ``import numpy as np`` maps ``np`` to ``numpy``;
    ``from numpy.random import default_rng`` maps ``default_rng`` to
    ``numpy.random.default_rng``; attribute chains are then resolved
    against these roots (:meth:`resolve`).
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports never name stdlib/numpy
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.aliases[name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class RawRngRule(Rule):
    """REP001: raw ``random`` / ``numpy.random`` use outside sim/rng.py."""

    code = "REP001"
    summary = (
        "raw random/np.random draw bypasses RngRegistry stream discipline"
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith(RNG_MODULE_SUFFIXES)

    def check(self, tree, path):
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            full = imports.resolve(node.func)
            if full is None:
                continue
            if full.startswith("random."):
                yield self.violation(
                    node, path,
                    f"call to stdlib '{full}' — draw from "
                    f"RngRegistry.stream(...) / derive_seed(...) instead "
                    f"so the stream is named, seeded and replayable",
                )
            elif full.startswith("numpy.random."):
                yield self.violation(
                    node, path,
                    f"call to '{full}' — construct generators only inside "
                    f"repro.sim.rng; everywhere else take a stream from "
                    f"RngRegistry.stream(...) or seed via derive_seed(...)",
                )


class WallClockRule(Rule):
    """REP002: nondeterminism sources in code a simulated run executes."""

    code = "REP002"
    summary = "wall-clock / nondeterminism source in a deterministic unit"

    _BANNED_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getenv", "os.getpid",
        "uuid.uuid1", "uuid.uuid4",
    })
    _BANNED_PREFIXES = ("secrets.",)

    def applies_to(self, path: str) -> bool:
        return bool(DETERMINISTIC_UNITS & _path_units(path))

    def check(self, tree, path):
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if imports.resolve(node) == "os.environ":
                    yield self.violation(
                        node, path,
                        "os.environ access — environment-dependent behaviour "
                        "in a simulation package breaks run reproducibility; "
                        "read configuration at the CLI/experiment layer and "
                        "pass it in explicitly",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            full = imports.resolve(node.func)
            if full is not None and (
                full in self._BANNED_CALLS
                or full.startswith(self._BANNED_PREFIXES)
            ):
                yield self.violation(
                    node, path,
                    f"call to '{full}' — simulation time is the engine's "
                    f"round counter and all entropy must come from "
                    f"RngRegistry; wall-clock/OS entropy makes runs "
                    f"unreproducible",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "min", "max")
            ):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "id"
                    ):
                        yield self.violation(
                            keyword.value, path,
                            f"'{node.func.id}(..., key=id)' orders by CPython "
                            f"object addresses, which vary run to run — "
                            f"order by a stable attribute instead",
                        )


#: Call names whose consumption of an iterable is order-insensitive.
#: ``math.fsum`` qualifies because it is exactly rounded: the result is
#: independent of summation order, unlike a naive float ``sum``.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
    "fsum", "math.fsum",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


class UnorderedIterationRule(Rule):
    """REP003: order-sensitive iteration over unordered set expressions."""

    code = "REP003"
    summary = "iteration over an unordered set/keys-view expression"

    def check(self, tree, path):
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        setish_names = self._collect_setish_names(tree)

        def is_keys_view(node: ast.expr) -> bool:
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "keys"
                and not node.args
                and not node.keywords
            )

        def is_setish(node: ast.expr) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")
                ):
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SET_METHODS
                    and (
                        is_setish(node.func.value)
                        or is_keys_view(node.func.value)
                    )
                ):
                    return True
                return False
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
            ):
                left, right = node.left, node.right
                return (
                    is_setish(left) or is_setish(right)
                    or is_keys_view(left) or is_keys_view(right)
                )
            dotted = _dotted_name(node)
            return dotted is not None and dotted in setish_names

        def consumed_order_free(node: ast.expr) -> bool:
            """Whether ``node``'s iteration order cannot reach the output.

            True when the iterable (or the comprehension around it) is an
            immediate argument of an order-insensitive consumer, or when
            the comprehension builds another set.
            """
            seen = node
            for __ in range(3):  # iterable -> genexp/comp -> call arg
                parent = parents.get(seen)
                if parent is None:
                    return False
                if isinstance(parent, ast.comprehension):
                    comp = parents.get(parent)
                    if isinstance(comp, ast.SetComp):
                        return True
                    seen = comp if comp is not None else parent
                    continue
                if isinstance(parent, ast.Call):
                    func_name = _dotted_name(parent.func)
                    return (
                        func_name is not None
                        and func_name in _ORDER_FREE_CONSUMERS
                        and seen in parent.args
                    )
                return False
            return False

        for node in ast.walk(tree):
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ) and node.func.id in ("list", "tuple", "enumerate", "reversed"):
                iterables.extend(node.args[:1])
            for iterable in iterables:
                if is_setish(iterable) and not consumed_order_free(iterable):
                    yield self.violation(
                        iterable, path,
                        "iterating an unordered set expression — element "
                        "order is hash/history dependent; wrap in sorted(...) "
                        "(or consume order-insensitively) before the elements "
                        "can reach RNG draws, message emission or results",
                    )

    @staticmethod
    def _collect_setish_names(tree: ast.Module) -> frozenset[str]:
        """Names (incl. dotted ``self.x``) bound to set-typed values.

        A deliberately shallow, syntactic inference: set/frozenset
        literals, constructors, comprehensions and annotations.  It is a
        lint heuristic, not a type checker — cross-module flow is out of
        scope and handled by fixing the producer side instead.
        """
        names: set[str] = set()

        def note(target: ast.expr) -> None:
            dotted = _dotted_name(target)
            if dotted is not None:
                names.add(dotted)

        def value_is_setish(node: ast.expr | None) -> bool:
            if node is None:
                return False
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
            )

        def annotation_is_set(node: ast.expr | None) -> bool:
            if node is None:
                return False
            if isinstance(node, ast.Subscript):
                node = node.value
            dotted = _dotted_name(node)
            return dotted is not None and dotted.rsplit(".", 1)[-1] in (
                "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                "MutableSet", "KeysView",
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and value_is_setish(node.value):
                for target in node.targets:
                    note(target)
            elif isinstance(node, ast.AnnAssign):
                if value_is_setish(node.value) or annotation_is_set(
                    node.annotation
                ):
                    note(node.target)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (*arguments.posonlyargs, *arguments.args,
                            *arguments.kwonlyargs):
                    if annotation_is_set(arg.annotation):
                        names.add(arg.arg)
        return frozenset(names)


def _dotted_name(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


#: Annotation names whose truthiness matches ``is not None`` closely
#: enough that ``or``-defaulting is conventional (REP004 exclusions).
_SCALAR_ANNOTATIONS = frozenset({
    "int", "float", "bool", "str", "bytes", "complex",
})


class TruthinessOnOptionalRule(Rule):
    """REP004: truthiness on Optional containers where ``is None`` was meant."""

    code = "REP004"
    summary = "truthiness check on a None-defaulted container-like parameter"

    def check(self, tree, path):
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            optional = self._optional_params(function)
            if not optional:
                continue
            yield from self._check_body(function, optional, path)

    @staticmethod
    def _optional_params(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, bool]:
        """Params defaulting to None -> whether their annotation is risky.

        Risky means annotated with a non-scalar type (a container or any
        class may define ``__len__``, making emptiness falsy).  ``True``
        for unannotated params too — for those only the strong
        ``param or Constructor()`` pattern is flagged (see _check_body).
        """
        arguments = function.args
        optional: dict[str, bool] = {}
        positional = [*arguments.posonlyargs, *arguments.args]
        defaults = arguments.defaults
        for arg, default in zip(positional[len(positional) - len(defaults):],
                                defaults):
            if _is_none(default):
                optional[arg.arg] = _annotation_risky(arg.annotation)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None and _is_none(default):
                optional[arg.arg] = _annotation_risky(arg.annotation)
        return optional

    def _check_body(self, function, optional: dict[str, bool], path):
        annotated_risky = {
            name for name, risky in optional.items()
            if risky and _has_annotation(function, name)
        }
        for node in ast.walk(function):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                first = node.values[0]
                if not (isinstance(first, ast.Name)
                        and first.id in optional):
                    continue
                fallback_is_call = any(
                    isinstance(value, ast.Call) for value in node.values[1:]
                )
                if optional[first.id] and (
                    first.id in annotated_risky or fallback_is_call
                ):
                    yield self.violation(
                        node, path,
                        f"'{first.id} or ...' treats an *empty* "
                        f"{first.id} (len() == 0 is falsy) like None and "
                        f"silently replaces it — write "
                        f"'{first.id} if {first.id} is not None else ...' "
                        f"(the RoundBus bug class)",
                    )
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = node.test
                negated = False
                if isinstance(test, ast.UnaryOp) and isinstance(
                    test.op, ast.Not
                ):
                    test = test.operand
                    negated = True
                if (
                    isinstance(test, ast.Name)
                    and test.id in annotated_risky
                ):
                    wanted = "is None" if negated else "is not None"
                    yield self.violation(
                        node, path,
                        f"truthiness test on optional container "
                        f"'{test.id}' — an empty value is falsy and takes "
                        f"the None branch; test '{test.id} {wanted}'",
                    )


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _has_annotation(function, name: str) -> bool:
    arguments = function.args
    for arg in (*arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs):
        if arg.arg == name:
            return arg.annotation is not None
    return False


def _annotation_risky(annotation: ast.expr | None) -> bool:
    """Whether the non-None part of an annotation may define ``__len__``.

    Unions are flattened; the annotation is safe only if *every*
    non-None member is a known scalar.  No annotation -> risky (but only
    the constructor-fallback pattern is reported for those).
    """
    if annotation is None:
        return True
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        # Forward-reference (string) annotation: parse and recurse.
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return True
    parts = _flatten_union(annotation)
    scalars = 0
    for part in parts:
        if _is_none(part):
            continue
        name = _dotted_name(part)
        if name is None and isinstance(part, ast.Subscript):
            name = _dotted_name(part.value)
        if name is None:
            return True
        base = name.rsplit(".", 1)[-1]
        if base in _SCALAR_ANNOTATIONS:
            scalars += 1
        elif base == "Optional":
            # Optional[X]: recurse into the subscript.
            if isinstance(part, ast.Subscript) and not _annotation_risky(
                part.slice
            ):
                scalars += 1
            else:
                return True
        else:
            return True
    return scalars == 0  # all-scalar unions are safe; bare None is risky


def _flatten_union(annotation: ast.expr) -> list[ast.expr]:
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return [*_flatten_union(annotation.left),
                *_flatten_union(annotation.right)]
    return [annotation]


_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.Counter", "collections.deque",
    "collections.OrderedDict",
})


class MutableSharedStateRule(Rule):
    """REP005: mutable defaults and class-body mutable literal attributes."""

    code = "REP005"
    summary = "mutable default argument or class-level mutable attribute"

    def check(self, tree, path):
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(node, imports, path)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_body(node, imports, path)

    def _is_mutable_value(self, node: ast.expr | None, imports) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "list", "dict", "set", "bytearray",
            ):
                return True
            full = imports.resolve(node.func)
            if full in _MUTABLE_FACTORIES:
                return True
            short = full.rsplit(".", 1)[-1] if full else None
            return short in ("defaultdict", "Counter", "deque", "OrderedDict")
        return False

    def _check_defaults(self, function, imports, path):
        arguments = function.args
        for default in (*arguments.defaults, *arguments.kw_defaults):
            if default is not None and self._is_mutable_value(
                default, imports
            ):
                yield self.violation(
                    default, path,
                    f"mutable default argument in '{function.name}' is "
                    f"shared across calls — default to None and construct "
                    f"inside the function (state leaks across runs break "
                    f"reproducibility)",
                )

    def _check_class_body(self, classdef, imports, path):
        for statement in classdef.body:
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
                value = statement.value
            else:
                continue
            names = [_dotted_name(target) for target in targets]
            if any(name == "__slots__" for name in names if name):
                continue
            if self._is_mutable_value(value, imports):
                shown = names[0] or "<attribute>"
                yield self.violation(
                    statement, path,
                    f"class-level mutable attribute "
                    f"'{classdef.name}.{shown}' is shared by every "
                    f"instance — cross-run state leaks; initialize it in "
                    f"__init__ (or use an immutable value)",
                )


#: Call targets whose return value is certainly a float (REP006 core).
#: Deliberately conservative: only builtins/``math`` members with a
#: float-only return type.  ``abs``/``max`` preserve int-ness and are
#: excluded; unresolvable names are assumed non-float.
_FLOAT_RETURNING_CALLS = frozenset({
    "float",
    "math.sqrt", "math.exp", "math.expm1", "math.pow",
    "math.log", "math.log2", "math.log10", "math.log1p",
    "math.sin", "math.cos", "math.tan", "math.atan2",
    "math.fabs", "math.fsum", "fsum", "math.hypot", "math.dist",
    "math.degrees", "math.radians", "math.copysign", "math.fmod",
})


def _is_sort_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name):
        return node.func.id == "sorted"
    return isinstance(node.func, ast.Attribute) and node.func.attr == "sort"


class FloatKeySortRule(Rule):
    """REP006: float-only sort keys without a deterministic tie-break."""

    code = "REP006"
    summary = "float-valued sort key with no stable tie-break component"

    #: Narrower than REP002's scope on purpose: these are the packages
    #: whose sort orders can reach RNG draws and protocol messages.
    _SCOPE = frozenset({"sim", "core", "chaos"})

    def applies_to(self, path: str) -> bool:
        return bool(self._SCOPE & _path_units(path))

    def check(self, tree, path):
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not _is_sort_call(node):
                continue
            for keyword in node.keywords:
                if keyword.arg != "key" or not isinstance(
                    keyword.value, ast.Lambda
                ):
                    continue
                body = keyword.value.body
                if isinstance(body, ast.Tuple):
                    continue  # composite key: ties broken by later parts
                if self._certainly_float(body, imports):
                    yield self.violation(
                        keyword.value, path,
                        "sort key is a bare float — the sort is stable, so "
                        "elements with *equal* keys keep their input order "
                        "and the result becomes history/hash-order "
                        "dependent; return a tuple adding a stable "
                        "secondary component, e.g. "
                        "key=lambda m: (score(m), m.node_id)",
                    )

    def _certainly_float(self, node: ast.expr, imports: ImportMap) -> bool:
        """Whether ``node`` syntactically must evaluate to a float.

        A lint heuristic, not type inference: division, float literals,
        and known float-returning calls propagate through arithmetic,
        unary ops and conditional expressions.  Anything unprovable
        (names, attributes, subscripts) counts as non-float, keeping
        false positives at zero at the cost of missing annotated-float
        lookups — the corpus pins exactly what fires.
        """
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True  # true division yields float for int inputs
            return (
                self._certainly_float(node.left, imports)
                or self._certainly_float(node.right, imports)
            )
        if isinstance(node, ast.UnaryOp):
            return self._certainly_float(node.operand, imports)
        if isinstance(node, ast.IfExp):
            return (
                self._certainly_float(node.body, imports)
                or self._certainly_float(node.orelse, imports)
            )
        if isinstance(node, ast.Call):
            full = imports.resolve(node.func) or _dotted_name(node.func)
            return full is not None and full in _FLOAT_RETURNING_CALLS
        return False


ALL_RULES: tuple[Rule, ...] = (
    RawRngRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    TruthinessOnOptionalRule(),
    MutableSharedStateRule(),
    FloatKeySortRule(),
)


def rules_by_code() -> dict[str, Rule]:
    return {rule.code: rule for rule in ALL_RULES}
