"""``hot-path``: allocation discipline in ``# repro: hot-path`` modules.

Removing per-event allocation from the engine and the request pipeline
bought a 1.5× speedup; the batch tier holds that line with closure-free
continuations.  This rule keeps rewrites honest in the modules that carry
the ``# repro: hot-path`` pragma (engine, batchpath, setassoc, server):

* **runtime closures** — ``lambda`` and nested ``def`` inside a hot
  function allocate a function object per call.
* **comprehensions** — list/set/dict comprehensions and generator
  expressions inside a hot function allocate a fresh container (and a
  frame, for generators) per call.
* **``__slots__`` discipline** — module-level classes without
  ``__slots__`` (or ``@dataclass(slots=True)``) carry a per-instance
  ``__dict__``; hot modules keep instance memory flat.  Disable with
  ``hot-path:slots=false``.

Install-time factories and amortized maintenance are marked with
``# repro: cold`` on the ``def`` line: the factory's *direct* body is
exempt, but functions it defines are checked as hot — building closures
at install time is the design; allocating inside them per event is the
regression.  Module- and class-level statements run once at import and
are never flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, RuleParam, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.registry import register_rule

_COMP_KIND = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}


def _has_slots(cls: ast.ClassDef) -> bool:
    """``__slots__`` in the class body, or ``@dataclass(slots=True)``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) \
                        and target.id == "__slots__":
                    return True
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == "__slots__":
            return True
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "slots" \
                        and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
    return False


class _HotVisitor:
    """Walks a hot module, classifying each function hot or cold."""

    def __init__(self, src: SourceFile, check_slots: bool) -> None:
        self.src = src
        self.check_slots = check_slots
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.src.finding(node, "hot-path", message))

    # ------------------------------------------------------------- module
    def run(self) -> None:
        for stmt in self.src.tree.body:
            self._visit_toplevel(stmt)

    def _visit_toplevel(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._enter_function(stmt)
        elif isinstance(stmt, ast.ClassDef):
            self._visit_class(stmt)
        # Other module-level statements run once at import: no findings.

    def _visit_class(self, cls: ast.ClassDef) -> None:
        if self.check_slots and not _has_slots(cls):
            self._flag(cls, f"class {cls.name} has no __slots__; "
                            f"hot-path instances should not carry a "
                            f"per-instance __dict__")
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._enter_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._visit_class(stmt)

    # ---------------------------------------------------------- functions
    def _enter_function(self, fn: ast.FunctionDef
                        | ast.AsyncFunctionDef) -> None:
        """Check one function: its direct body is hot unless the def line
        carries ``# repro: cold``; either way, nested defs are re-entered
        with their own classification."""
        hot = not self.src.pragmas.is_cold_def(fn.lineno)
        self._scan_body(fn, hot)

    def _scan_body(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                   hot: bool) -> None:
        """Walk the function's body at one hotness level.  Nested defs
        re-enter with their own classification (a cold factory may
        contain hot closures); everything else inherits ``hot``."""
        stack: list[ast.AST] = list(reversed(fn.body))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if hot:
                    self._flag(node, f"nested function {node.name!r} "
                                     f"allocates a closure per call on the "
                                     f"hot path; hoist it or mark the "
                                     f"enclosing def '# repro: cold'")
                self._enter_function(node)
                continue
            if isinstance(node, ast.ClassDef):
                self._visit_class(node)
                continue
            if hot:
                if isinstance(node, ast.Lambda):
                    self._flag(node, "lambda allocates a closure per call "
                                     "on the hot path; use a bound method "
                                     "or a module-level function")
                else:
                    kind = _COMP_KIND.get(type(node))
                    if kind is not None:
                        self._flag(node, f"{kind} allocates on the hot "
                                         f"path; use a preallocated "
                                         f"buffer or an explicit loop")
            stack.extend(ast.iter_child_nodes(node))


@register_rule
class HotPathRule(Rule):
    """Allocation discipline inside ``# repro: hot-path`` modules."""

    NAME = "hot-path"
    DESCRIPTION = ("closures, comprehensions and __dict__-carrying "
                   "classes in '# repro: hot-path' modules")
    PARAMS = (
        RuleParam("slots", bool, True,
                  "also require __slots__ on classes in hot modules"),
    )

    def check(self, src: SourceFile) -> list[Finding]:
        if not src.pragmas.hot_path:
            return []
        visitor = _HotVisitor(src, check_slots=bool(self.params["slots"]))
        visitor.run()
        return visitor.findings
