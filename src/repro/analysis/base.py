"""The rule abstraction: the rule registry and the per-file check surface.

A rule is a registered :class:`~repro.analysis.registry.Component` like
an LLC policy: a ``NAME``, a one-line ``DESCRIPTION``, a declared
:class:`~repro.analysis.registry.Param` schema, and one hook
(:meth:`Rule.check`).  :data:`RULES` is its registry; the built-in rules
register when :mod:`repro.analysis.rules` is imported, which the lookup
functions here do on first use.

The analysis package imports nothing from the simulator, so it can be
type-checked strictly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.pragmas import FilePragmas
from repro.analysis.registry import Component, Registry


@dataclass
class SourceFile:
    """One parsed source file as handed to every rule.

    Attributes:
        path: the path findings report (posix separators).
        tree: the parsed module.
        pragmas: every ``# repro:`` pragma in the file.
        is_sim: True for determinism-critical simulator code (see
            :func:`repro.analysis.config.classify_path`); infrastructure
            files (CLI, service, experiments) may use wall clocks and
            shared RNGs freely.
    """

    path: str
    tree: ast.Module
    pragmas: FilePragmas
    is_sim: bool = True

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s location."""
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        return Finding(path=self.path, line=line, col=col,
                       rule=rule, message=message)


class Rule(Component):
    """Base class for registered static-analysis rules.

    Subclasses set ``NAME`` and ``DESCRIPTION``, optionally declare
    ``PARAMS``, and implement :meth:`check`.
    """

    KIND = "check rule"

    def check(self, src: SourceFile) -> list[Finding]:
        """Findings for one file (pragma/baseline filtering happens in the
        checker, not here — rules report everything they see)."""
        raise NotImplementedError


#: Registered check rules (the ``--rules`` names).
RULES: Registry[Rule] = Registry(Rule)
register_rule = RULES.register


def _rules() -> Registry[Rule]:
    """:data:`RULES` with the built-in rules loaded.  Their modules
    register on import, done here rather than at package import so that
    importing the analysis package for its registry stays cheap."""
    import repro.analysis.rules  # noqa: F401  (registers on import)

    return RULES


def available_rules() -> dict[str, type[Rule]]:
    """Canonical name → rule class, sorted by name."""
    return _rules().available()


def create_rule(spec: str) -> Rule:
    """Instantiate a rule from its ``NAME[:k=v,...]`` spec."""
    return _rules().from_spec(spec)


def default_rules() -> list[Rule]:
    """One instance of every registered rule with default parameters."""
    return [cls() for cls in available_rules().values()]


def call_name(node: ast.expr) -> str | None:
    """The terminal name of a call target: ``foo`` → ``foo``,
    ``self.foo`` / ``a.b.foo`` → ``foo``, anything else → None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` rendered as ``"a.b.c"`` when the chain is pure
    names/attributes, else None."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))
