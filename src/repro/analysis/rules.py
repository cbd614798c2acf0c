"""Rule catalog for repro-lint.

Every rule is a subclass of :class:`Rule` with a unique code and a docstring
that *is* the user-facing documentation (the first line becomes the summary
shown by ``repro-lint --list-rules``).  Rules receive a parsed
:class:`FileContext` and yield :class:`Violation` records; they never mutate
files.

Detection is deliberately *syntactic*: the checker runs on every commit and
must stay dependency-free and fast, so rules pattern-match the AST plus a
small per-scope symbol table instead of doing type inference.  False
positives are expected to be rare and are handled by per-line waivers with
a written reason, never by weakening a rule.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "RULES",
    "FileContext",
    "Rule",
    "Violation",
    "rule_catalog",
]


@dataclass(frozen=True)
class Violation:
    """One rule hit at a specific source location."""

    code: str
    path: str
    line: int
    column: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Parsed view of one file handed to every rule."""

    path: str  # repo-relative POSIX path
    tree: ast.Module


def _under(path: str, prefix: str) -> bool:
    return path == prefix.rstrip("/") or path.startswith(prefix)


class Rule:
    """Base class: one lint rule with a code and a docstring."""

    code: str = ""

    @classmethod
    def summary(cls) -> str:
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0]

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError
        yield  # pragma: no cover


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an expression (``a.b.c`` -> "a.b.c")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class DET001WallClock(Rule):
    """No wall-clock reads or sleeps inside ``src/repro/``.

    ``time.time()``, ``time.sleep()``, ``time.monotonic()`` and
    ``datetime.now()`` make simulation and resilience behaviour depend on
    the host clock: retries must use the *virtual* never-slept waits of
    ``resilience.retry`` and event timestamps must come from the batch
    clock.  ``time.perf_counter()`` stays legal -- it only ever measures
    durations for reporting (``wall_clock_seconds``) and never feeds
    simulation logic.  Tests and benchmarks are outside the rule's scope
    entirely.
    """

    code = "DET001"

    BANNED_TIME = frozenset(
        {"time", "time_ns", "sleep", "monotonic", "monotonic_ns", "localtime", "ctime"}
    )
    BANNED_DATETIME = frozenset({"now", "utcnow", "today"})

    def applies_to(self, path: str) -> bool:
        return _under(path, "src/repro/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # Names bound by `from time import ...` / `from datetime import ...`.
        from_time: set[str] = set()
        from_datetime: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    from_time.update(a.asname or a.name for a in node.names)
                elif node.module == "datetime":
                    from_datetime.update(a.asname or a.name for a in node.names)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            banned: str | None = None
            if isinstance(func, ast.Attribute):
                dotted = _dotted(func)
                head, _, attr = dotted.rpartition(".")
                if head == "time" and attr in self.BANNED_TIME:
                    banned = dotted
                elif attr in self.BANNED_DATETIME and (
                    head in {"datetime", "date", "datetime.datetime", "datetime.date"}
                    or head in from_datetime
                ):
                    banned = dotted
            elif isinstance(func, ast.Name):
                if func.id in from_time and func.id in self.BANNED_TIME:
                    banned = f"time.{func.id}"
                elif func.id in from_datetime:
                    # `from datetime import datetime` then `datetime(...)` is a
                    # constructor, not a clock read; only flag clock factories.
                    pass
            if banned is not None:
                yield Violation(
                    code=self.code,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"wall-clock call `{banned}` in simulation code; use the "
                        "virtual clock / retry waits"
                    ),
                )


class DET002ModuleRandom(Rule):
    """No module-level ``random.*`` calls; randomness must be stream-seeded.

    Calling ``random.random()``, ``random.shuffle()`` (or any function of
    the module-global generator, including ``random.seed``) couples the
    result to interpreter-global state that any import or library call can
    perturb.  Every draw must come from an explicitly seeded
    ``random.Random(seed)`` instance -- the resilience layer's
    string-seeded per-purpose streams (``FaultInjector``) are the model.
    ``random.Random`` / ``random.SystemRandom`` *construction* is allowed;
    calling through the module generator is not, anywhere in the repo.
    """

    code = "DET002"

    ALLOWED_ATTRS = frozenset({"Random", "SystemRandom"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        from_random: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
                from_random.update(
                    a.asname or a.name for a in node.names if a.name not in self.ALLOWED_ATTRS
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr not in self.ALLOWED_ATTRS
            ):
                name = f"random.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in from_random:
                name = f"random.{func.id}"
            if name is not None:
                yield Violation(
                    code=self.code,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"module-level `{name}()` uses the interpreter-global RNG; "
                        "draw from a seeded random.Random stream instead"
                    ),
                )


#: Builtins that consume an iterable without exposing its order; a generator
#: expression that is the sole argument of one of these is exempt from DET003.
_ORDER_INSENSITIVE = frozenset({"sorted", "min", "max", "sum", "any", "all", "set", "frozenset"})
#: Set methods that return a new set.
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class DET003SetIteration(Rule):
    """No order-sensitive iteration over bare ``set``s.

    Set iteration order depends on hashes and insertion history; when the
    iteration order can reach results (assignment lists, event ordering,
    metrics accumulation in floating point) two equal runs may diverge.
    Iterate ``sorted(the_set)`` or keep an ordered container (dict keys
    preserve insertion order).  Order-insensitive consumers
    (``len``/``sum``/``min``/``max``/``any``/``all``/``set``/``frozenset``)
    are exempt.
    """

    code = "DET003"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        exempt: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                exempt.add(id(node.args[0]))
        for scope in _scopes(ctx.tree):
            bindings = _set_bindings(scope)
            for node in _scope_walk(scope):
                for iter_expr in self._ordered_iterables(node, exempt):
                    if self._is_set_expr(iter_expr, bindings):
                        yield self._violation(ctx, iter_expr)

    def _ordered_iterables(self, node: ast.AST, exempt: set[int]) -> Iterator[ast.expr]:
        # `sorted(s)` / `min(s)` / `len(s)`-style consumers are naturally
        # exempt: only the constructs below expose iteration order.  A
        # SetComp's own output is unordered, so its sources are exempt too,
        # as is a generator expression fed straight into an
        # order-insensitive builtin (`all(f(x) for x in s)`).
        if isinstance(node, ast.For):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if id(node) not in exempt:
                for comp in node.generators:
                    yield comp.iter
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"list", "tuple", "enumerate"} and node.args:
                yield node.args[0]

    def _is_set_expr(self, node: ast.expr, bindings: _SetBindings) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return _name_is_set(bindings, node.id, node.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and self._is_set_expr(func.value, bindings)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._is_set_expr(node.left, bindings) or self._is_set_expr(
                node.right, bindings
            )
        return False

    def _violation(self, ctx: FileContext, iter_expr: ast.expr) -> Violation:
        return Violation(
            code=self.code,
            path=ctx.path,
            line=iter_expr.lineno,
            column=iter_expr.col_offset,
            message=(
                "iteration over a bare set leaks hash order into results; "
                "wrap in sorted(...) or use an ordered container"
            ),
        )


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """Yield the module plus every function/method body as separate scopes."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: Per-name, line-ordered binding flags: ``True`` = bound to a set here.
_SetBindings = dict[str, list[tuple[int, bool]]]

#: Calls whose result is definitely not a ``set`` (rebinding one of these
#: over a set-typed name de-flags it from that line on).
_NON_SET_CALLS = frozenset({"sorted", "list", "tuple", "dict", "frozenset", "str", "len"})


def _set_bindings(scope: ast.AST) -> _SetBindings:
    """Line-ordered set-typedness of every name bound in *scope*.

    Tracks each binding separately so a name rebound from ``set`` to
    ``sorted(...)``/``list(...)`` stops counting as a set from the rebind
    onward (and vice versa).  ``frozenset`` bindings deliberately do NOT
    mark the name: in this codebase frozensets are hashed-in constants used
    for membership tests, and flagging every later ``in`` scan of them
    drowned the signal (iterating one directly is still caught by the
    expression check).  This is a heuristic symbol table, not type
    inference -- good enough because the rule exists to force explicit
    ordering at the few real sites.
    """
    bindings: _SetBindings = {}

    def record(name: str, line: int, is_set: bool) -> None:
        bindings.setdefault(name, []).append((line, is_set))

    def classify(target: ast.expr, value: ast.expr | None, annotation: ast.expr | None) -> None:
        if not isinstance(target, ast.Name):
            return
        if annotation is not None:
            ann = annotation
            if isinstance(ann, ast.Subscript):
                ann = ann.value
            if isinstance(ann, ast.Name):
                if ann.id == "set":
                    record(target.id, target.lineno, True)
                    return
                if ann.id in {"frozenset", "list", "tuple", "dict", "str"}:
                    record(target.id, target.lineno, False)
                    return
        if value is None:
            return
        if isinstance(value, (ast.Set, ast.SetComp)):
            record(target.id, target.lineno, True)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            # Unknown calls count as non-set: a wrong "is a set" guess is a
            # false positive, a wrong "is not" only loses a hint.
            record(target.id, target.lineno, value.func.id == "set")
        elif isinstance(
            value,
            (ast.List, ast.ListComp, ast.Dict, ast.DictComp, ast.Tuple, ast.Constant, ast.Call),
        ):
            record(target.id, target.lineno, False)

    for node in _scope_walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                classify(target, node.value, None)
        elif isinstance(node, ast.AnnAssign):
            classify(node.target, node.value, node.annotation)
        elif isinstance(node, ast.AugAssign):
            # `s |= other` keeps s a set; `flags |= 0x4` keeps it an int.
            if isinstance(node.op, _SET_OPS) and isinstance(node.target, ast.Name):
                is_set = not isinstance(node.value, ast.Constant)
                record(node.target.id, node.target.lineno, is_set)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # Loop targets rebind to element values, never to the set itself.
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    record(target.id, target.lineno, False)
    for entries in bindings.values():
        entries.sort()
    return bindings


def _name_is_set(bindings: _SetBindings, name: str, line: int) -> bool:
    """Was *name* last bound to a set strictly before *line*?

    Falls back to the first binding when every binding is at/after the use
    line (loops bind textually below a use on the back edge).
    """
    entries = bindings.get(name)
    if not entries:
        return False
    prior = [flag for bind_line, flag in entries if bind_line < line]
    if prior:
        return prior[-1]
    return entries[0][1]


_COSTY = re.compile(
    r"(?:^|_)(cost|costs|weight|weights|dist|distance|distances|loss|fare|"
    r"price|penalty|detour|eta)(?:$|_)",
    re.IGNORECASE,
)
_INF_NAMES = re.compile(r"(?:^|_)INF(?:$|_)|infinity", re.IGNORECASE)


class INV002FloatCostEquality(Rule):
    """No ``==`` / ``!=`` on float cost or weight expressions.

    Costs are sums of float edge weights; two mathematically equal routes
    can differ in the last ulp depending on summation order, backend and
    repair history -- exact comparison makes acceptance decisions
    backend-dependent.  Use ``repro.numeric.costs_equal`` /
    ``costs_differ`` (relative+absolute tolerance) or ``math.isclose``.
    Comparisons against infinity are exempt (IEEE infinity is exact and is
    the idiomatic unreachable sentinel).
    """

    code = "INV002"

    def applies_to(self, path: str) -> bool:
        return _under(path, "src/repro/")

    def _costy(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return bool(_COSTY.search(node.id)) and not _INF_NAMES.search(node.id)
        if isinstance(node, ast.Attribute):
            return bool(_COSTY.search(node.attr)) and not _INF_NAMES.search(node.attr)
        if isinstance(node, ast.Subscript):
            return self._costy(node.value)
        if isinstance(node, ast.Call):
            return self._costy(node.func)
        if isinstance(node, ast.BinOp):
            return self._costy(node.left) or self._costy(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._costy(node.operand)
        return False

    def _infinite(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    return "inf" in arg.value.lower()
        if isinstance(node, ast.Attribute):
            return node.attr == "inf" or bool(_INF_NAMES.search(node.attr))
        if isinstance(node, ast.Name):
            return bool(_INF_NAMES.search(node.id))
        if isinstance(node, ast.UnaryOp):
            return self._infinite(node.operand)
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if not (self._costy(left) or self._costy(right)):
                    continue
                if self._infinite(left) or self._infinite(right):
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield Violation(
                    code=self.code,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"exact float `{symbol}` on a cost/weight expression; use "
                        "repro.numeric.costs_equal/costs_differ (or math.isclose)"
                    ),
                )


class STY001BroadExcept(Rule):
    """No bare ``except:`` / broad ``except Exception`` without re-raise.

    A handler that swallows ``Exception`` hides injected faults, probe
    failures and genuine bugs alike, defeating the typed-exception ladder
    of the resilience layer (``ReproError`` subclasses chained with
    ``raise ... from``).  Catch the narrowest :class:`repro.exceptions`
    type that models the failure, or re-raise (possibly wrapped in a typed
    error) inside the handler.  Broad handlers that *do* contain a
    ``raise`` are accepted.
    """

    code = "STY001"

    BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in self.BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(el) for el in type_node.elts)
        return False

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    break
                if isinstance(node, ast.Raise):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if node.type is not None and self._reraises(node):
                continue
            what = "bare `except:`" if node.type is None else "broad `except Exception`"
            yield Violation(
                code=self.code,
                path=ctx.path,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"{what} swallows typed failures; catch a repro.exceptions "
                    "type or re-raise a typed wrap inside the handler"
                ),
            )


class WVR001WaiverReason(Rule):
    """Every ``# repro-lint: disable=...`` waiver must carry a written reason.

    A waiver is a reviewed, documented exception to a rule -- the reason
    text after the code(s) is what the reviewer signs off on.  Waivers
    without a reason fail the build; this rule is emitted by the engine's
    waiver parser (it has no AST pattern of its own) and cannot itself be
    waived.
    """

    code = "WVR001"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


#: Ordered rule catalog; the engine instantiates each once per run.
RULES: tuple[type[Rule], ...] = (
    DET001WallClock,
    DET002ModuleRandom,
    DET003SetIteration,
    INV002FloatCostEquality,
    STY001BroadExcept,
    WVR001WaiverReason,
)


def rule_catalog() -> list[tuple[str, str]]:
    """(code, summary) for every registered rule, sorted by code."""
    return sorted((rule.code, rule.summary()) for rule in RULES)
