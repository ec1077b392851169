"""``determinism``: nondeterminism sources in simulator code.

Everything the reproduction promises — byte-identical golden captures,
content-keyed caching, event≡batch tier parity — assumes the simulator
is a pure function of its inputs.  This rule flags the classic ways that
breaks, in files classified as simulator code (see
:mod:`repro.analysis.config`):

* **set iteration** — ``for`` loops and list/dict comprehensions whose
  iterable is provably a ``set``/``frozenset`` (literal, constructor
  call, set comprehension, or a local name bound to one).  Set order
  varies with hash seeding and insertion history; wrap the iterable in
  ``sorted(...)``.  Generators consumed by order-insensitive reducers
  (``sum``/``min``/``max``/``any``/``all``/``len``/``set``/``frozenset``/
  ``sorted``) are exempt, as is iterating a set to build another set.
* **``id()`` as a key** — dict-literal/comprehension keys, stored
  subscripts (``d[id(x)] = ...``) and ``sorted``/``.sort`` key functions
  built on ``id()``.  CPython ids are address-derived and vary across
  runs; membership tests and distinct-counting are deliberately *not*
  flagged (identity checks are deterministic).
* **shared-state randomness** — module-level ``random.*`` draws and
  unseeded ``random.Random()``; simulator code must derive every draw
  from an explicitly seeded ``random.Random(seed)`` instance.
* **wall-clock/entropy reads** — ``time.time``/``perf_counter``/...,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid1/uuid4``.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (Rule, SourceFile, call_name, dotted_name,
                                 register_rule)
from repro.analysis.findings import Finding

#: Builtins that consume an iterable without exposing its order.
_ORDER_INSENSITIVE = frozenset({
    "sum", "min", "max", "any", "all", "len", "set", "frozenset",
    "sorted", "Counter",
})

#: Module-level ``random.*`` calls that draw from the shared global state.
_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})

#: Dotted wall-clock / entropy calls.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: Attribute names that read a wall clock off a datetime-ish object.
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Conservatively: is ``node`` certainly a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, src: SourceFile) -> None:
        self.src = src
        self.findings: list[Finding] = []
        #: Local names provably bound to sets, per enclosing function
        #: scope (a stack; module level is scope 0).
        self._set_names: list[set[str]] = [set()]
        #: Generator expressions exempted by an order-insensitive reducer.
        self._exempt_gens: set[int] = set()

    # ------------------------------------------------------------ helpers
    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.src.finding(node, "determinism", message))

    def _names(self) -> set[str]:
        return self._set_names[-1]

    def _check_iteration(self, node: ast.AST, iterable: ast.expr,
                         what: str) -> None:
        if _is_set_expr(iterable, self._names()):
            self._flag(node, f"{what} iterates a set, whose order is not "
                             f"deterministic; iterate sorted(...) instead")

    # ------------------------------------------------------------- scopes
    def _visit_function(self, node: ast.FunctionDef
                        | ast.AsyncFunctionDef) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -------------------------------------------------- local set tracking
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self._names())
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._names().add(target.id)
                else:
                    self._names().discard(target.id)
            elif isinstance(target, ast.Subscript):
                self._check_subscript_store(target)
        self.generic_visit(node)

    # -------------------------------------------------------- set iteration
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter, "for loop")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_id_key(node.key, "dict comprehension key")
        self._check_comp(node, "dict comprehension")

    def _check_comp(self, node: ast.ListComp | ast.DictComp
                    | ast.GeneratorExp, what: str) -> None:
        for gen in node.generators:
            self._check_iteration(node, gen.iter, what)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if id(node) not in self._exempt_gens:
            self._check_comp(node, "generator expression")
        else:
            self.generic_visit(node)

    # ----------------------------------------------------------- id() keys
    def _contains_id_call(self, node: ast.expr) -> ast.Call | None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "id" and sub.args:
                return sub
        return None

    def _check_id_key(self, node: ast.expr, where: str) -> None:
        call = self._contains_id_call(node)
        if call is not None:
            self._flag(call, f"id() used as a {where}: object ids vary "
                             f"across runs and break determinism")

    def _check_subscript_store(self, target: ast.Subscript) -> None:
        self._check_id_key(target.slice, "subscript store key")

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None:
                self._check_id_key(key, "dict literal key")
        self.generic_visit(node)

    # ------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = call_name(func)
        # Order-insensitive reducers exempt their generator argument.
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._exempt_gens.add(id(arg))
        # sorted(key=...)/.sort(key=...) with an id()-based key function.
        if name in ("sorted", "sort"):
            for kw in node.keywords:
                if kw.arg == "key":
                    self._check_id_key(kw.value, "sort key")
        dotted = dotted_name(func)
        if dotted is not None:
            self._check_dotted_call(node, dotted)
        self.generic_visit(node)

    def _check_dotted_call(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALL_CLOCK:
            self._flag(node, f"{dotted}() reads wall clock/entropy; "
                             f"simulator code must be a pure function of "
                             f"its inputs")
            return
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _RANDOM_DRAWS:
                self._flag(node, f"random.{parts[1]}() draws from the "
                                 f"shared module-level RNG; use a seeded "
                                 f"random.Random(seed) instance")
            elif parts[1] == "Random" and not node.args:
                self._flag(node, "random.Random() without a seed is "
                                 "nondeterministic; pass an explicit seed")
            return
        if len(parts) >= 2 and parts[1] in _DATETIME_NOW \
                and parts[0] in ("datetime", "date"):
            self._flag(node, f"{dotted}() reads the wall clock; simulator "
                             f"code must be a pure function of its inputs")


@register_rule
class DeterminismRule(Rule):
    """Nondeterminism sources (set iteration, id() keys, shared RNGs,
    wall clocks) in simulator code."""

    NAME = "determinism"
    DESCRIPTION = ("unordered set iteration, id() keys, unseeded/shared "
                   "randomness and wall-clock reads in sim code")

    def check(self, src: SourceFile) -> list[Finding]:
        if not src.is_sim:
            return []
        visitor = _DeterminismVisitor(src)
        visitor.visit(src.tree)
        return visitor.findings
