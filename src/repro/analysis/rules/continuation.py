"""``continuation``: the ``schedule_call`` callback return protocol.

The engine's zero-allocation scheduling contract
(:mod:`repro.sim.engine`): a callback passed to ``schedule_call`` /
``schedule_batch`` may either return ``None`` (done) or a ``(time, fn,
arg)`` triple that the engine heapreplaces into the finished slot.  Returning anything else silently corrupts the heap —
the engine would schedule ``res[1]`` as a callable — and the failure
surfaces far from the bug, as a golden-capture diff or an exception deep
inside ``heapq``.

This rule resolves, per module, which local functions are used as engine
callbacks, then proves what it can about their returns:

* roots: the ``fn`` argument of ``schedule_call(t, fn, arg)``, and the
  middle element of 3-tuples inside ``schedule_batch([...])``
  literals/comprehensions.  A root that is a ``lambda`` is checked in
  place: its body is its return value;
* closure: the middle element of any returned 3-tuple — a continuation
  names the next callback, so chains are followed to a fixed point
  (seeded from every function so cross-module roots, like the batch-tier
  closures installed onto ``GPUSystem``, still get their chains
  checked);
* verdicts: a ``return`` of a literal tuple with ≠3 elements, or of a
  non-``None`` constant, is provably wrong and flagged.  Names, calls
  and other opaque expressions are trusted (this is a lint, not a type
  system); bare ``return``/fall-through are fine.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, SourceFile, call_name, register_rule
from repro.analysis.findings import Finding


def _callable_name(node: ast.expr) -> str | None:
    """A plausibly-callable reference's terminal name (``self._fn`` /
    ``fn``), or None for non-reference expressions."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_functions(tree: ast.Module
                       ) -> dict[str, list[ast.FunctionDef
                                           | ast.AsyncFunctionDef]]:
    """Every function definition in the module (nested ones included),
    grouped by name — callbacks are resolved by terminal name."""
    out: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(node.name, []).append(node)
    return out


def _own_returns(fn: ast.FunctionDef | ast.AsyncFunctionDef
                 ) -> list[ast.Return]:
    """``return`` statements belonging to ``fn`` itself (not to functions
    nested inside it)."""
    returns: list[ast.Return] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Return):
            returns.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return returns


def _returned_exprs(node: ast.expr) -> list[ast.expr]:
    """The concrete expressions a return value may evaluate to,
    looking through conditional expressions and boolean short-circuits."""
    if isinstance(node, ast.IfExp):
        return _returned_exprs(node.body) + _returned_exprs(node.orelse)
    if isinstance(node, ast.BoolOp):
        out: list[ast.expr] = []
        for value in node.values:
            out.extend(_returned_exprs(value))
        return out
    return [node]


def _continued(expr: ast.expr) -> str | None:
    """The callback a returned ``(time, fn, arg)`` triple continues
    with, by terminal name."""
    if isinstance(expr, ast.Tuple) and len(expr.elts) == 3:
        return _callable_name(expr.elts[1])
    return None


class _CallbackCollector(ast.NodeVisitor):
    """Finds the names used as engine-callback roots in one module."""

    def __init__(self) -> None:
        self.roots: set[str] = set()
        self.lambdas: list[ast.Lambda] = []

    def _add(self, node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            self.lambdas.append(node)
            return
        cb = _callable_name(node)
        if cb is not None:
            self.roots.add(cb)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node.func)
        if name == "schedule_call" and len(node.args) >= 2:
            self._add(node.args[1])
        elif name == "schedule_batch" and node.args:
            self._collect_batch(node.args[0])
        self.generic_visit(node)

    def _collect_batch(self, arg: ast.expr) -> None:
        elements: list[ast.expr] = []
        if isinstance(arg, (ast.List, ast.Tuple)):
            elements = list(arg.elts)
        elif isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
            elements = [arg.elt]
        for elt in elements:
            if isinstance(elt, ast.Tuple) and len(elt.elts) == 3:
                self._add(elt.elts[1])


@register_rule
class ContinuationRule(Rule):
    """Callbacks handed to the engine must return ``(time, fn, arg)`` or
    ``None`` on every path."""

    NAME = "continuation"
    DESCRIPTION = ("schedule_call/schedule_batch callbacks must return "
                   "(time, fn, arg) or None on every path")

    def check(self, src: SourceFile) -> list[Finding]:
        collector = _CallbackCollector()
        collector.visit(src.tree)
        functions = _collect_functions(src.tree)

        # Fixed point: a continuation triple's middle element names the
        # next callback.  Seed chain discovery from *every* function so
        # callback families installed from another module (the batch-tier
        # closures) are still followed once any of them returns a triple.
        callbacks = set(collector.roots)
        for lam in collector.lambdas:
            for expr in _returned_exprs(lam.body):
                cb = _continued(expr)
                if cb is not None and cb in functions:
                    callbacks.add(cb)
        pending = list(functions)
        seen: set[str] = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            for fn in functions.get(name, []):
                for ret in _own_returns(fn):
                    if ret.value is None:
                        continue
                    for expr in _returned_exprs(ret.value):
                        cb = _continued(expr)
                        if cb is not None and cb in functions:
                            callbacks.add(cb)
                            if cb not in seen:
                                pending.append(cb)

        findings: list[Finding] = []
        for name in sorted(callbacks):
            for fn in functions.get(name, []):
                for ret in _own_returns(fn):
                    if ret.value is not None:
                        findings.extend(self._check_return(
                            src, ret, ret.value, repr(fn.name)))
        for lam in collector.lambdas:
            # A lambda's body is its return value.
            findings.extend(self._check_return(src, lam, lam.body,
                                               "lambda"))
        return findings

    def _check_return(self, src: SourceFile, node: ast.AST,
                      value: ast.expr, label: str) -> list[Finding]:
        """Findings for one returned expression of callback ``label``."""
        findings: list[Finding] = []
        for expr in _returned_exprs(value):
            bad = self._bad_return(expr)
            if bad is not None:
                findings.append(src.finding(
                    node, "continuation",
                    f"engine callback {label} returns {bad}; the "
                    f"continuation protocol allows only None or a "
                    f"(time, fn, arg) triple"))
        return findings

    @staticmethod
    def _bad_return(expr: ast.expr) -> str | None:
        """A description of the provably-wrong return value, or None when
        the expression is fine / unprovable."""
        if isinstance(expr, (ast.Tuple, ast.List)):
            if len(expr.elts) != 3 or isinstance(expr, ast.List):
                kind = "a list" if isinstance(expr, ast.List) \
                    else f"a {len(expr.elts)}-tuple"
                return kind
            return None
        if isinstance(expr, ast.Constant) and expr.value is not None:
            return f"the constant {expr.value!r}"
        return None
