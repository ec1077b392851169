"""``registry``: the LLC-policy registry contract.

Policies resolve by name through the ``POLICIES`` registry of
:mod:`repro.policy.base`; the CLI, campaign specs and the job server all
construct them from ``NAME[:k=v,...]`` strings.  A policy class that
drifts from the registry contract fails at a distance — an unregistered
class silently disappears from ``repro policy list`` and every spec that
names it, and a ``self.params`` key with no :class:`Param` declaration
bypasses validation, type coercion, and the canonical-params hash that
feeds run content keys.

Checked, for every subclass of a policy base (``LLCPolicy``, or any base
named ``...Policy``: the policy layer's bases follow that convention, so
``IntervalPolicy``'s subclasses are covered wherever it is defined):

* a class declaring a non-empty ``NAME`` carries the
  ``@register_policy`` decorator (name without registration is the
  classic copy-paste omission);
* ``PARAMS`` entries are ``Param("name", ...)`` calls with unique
  first-argument strings;
* an overriding ``__init__``'s named parameters (beyond ``self``) are
  all declared in ``PARAMS`` — the registry constructs policies with
  ``cls(**params)``, so an undeclared parameter can never be passed;
* every ``self.params["key"]`` read (including through simple aliases
  like ``p = self.params``) names a declared parameter.  Undeclared keys
  raise ``KeyError`` at runtime only on the code path that reads them.

Classes that declare no ``PARAMS`` of their own are exempt from the key
checks (they may consume parameters declared by a base class).
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, SourceFile, call_name, register_rule
from repro.analysis.findings import Finding


def _is_policy_class(cls: ast.ClassDef) -> bool:
    return any((call_name(base) or "").endswith("Policy")
               for base in cls.bases)


def _class_assign(cls: ast.ClassDef, name: str) -> ast.expr | None:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == name:
            return stmt.value
    return None


def _declared_param_names(params: ast.expr) -> list[str | None]:
    """First-argument strings of the ``Param(...)`` calls in a
    ``PARAMS`` tuple; None marks entries that are not statically
    readable."""
    if not isinstance(params, (ast.Tuple, ast.List)):
        return []
    names: list[str | None] = []
    for elt in params.elts:
        if isinstance(elt, ast.Call) \
                and call_name(elt.func) == "Param" \
                and elt.args \
                and isinstance(elt.args[0], ast.Constant) \
                and isinstance(elt.args[0].value, str):
            names.append(elt.args[0].value)
        else:
            names.append(None)
    return names


def _params_aliases(fn: ast.FunctionDef) -> set[str]:
    """Local names bound to ``self.params`` (``p = self.params``)."""
    aliases: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "params" \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "self":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _params_reads(fn: ast.FunctionDef) -> list[tuple[ast.AST, str]]:
    """``(node, key)`` for every ``self.params["key"]`` / ``alias["key"]``
    string-subscript read in ``fn``."""
    aliases = _params_aliases(fn)
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Subscript):
            continue
        if not (isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            continue
        base = node.value
        is_params = (
            isinstance(base, ast.Attribute) and base.attr == "params"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ) or (isinstance(base, ast.Name) and base.id in aliases)
        if is_params:
            out.append((node, node.slice.value))
    return out


@register_rule
class RegistryContractRule(Rule):
    """LLCPolicy subclasses must register and keep PARAMS in sync with
    what they construct and read."""

    NAME = "registry"
    DESCRIPTION = ("LLCPolicy subclasses: @register_policy present, "
                   "PARAMS unique and consistent with __init__ and "
                   "self.params reads")

    def check(self, src: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and _is_policy_class(node):
                findings.extend(self._check_class(src, node))
        return findings

    def _check_class(self, src: SourceFile,
                     cls: ast.ClassDef) -> list[Finding]:
        findings: list[Finding] = []
        name_value = _class_assign(cls, "NAME")
        has_name = isinstance(name_value, ast.Constant) \
            and isinstance(name_value.value, str) and name_value.value
        registered = any(call_name(d) == "register_policy"
                         for d in cls.decorator_list)
        if has_name and not registered:
            findings.append(src.finding(
                cls, "registry",
                f"policy class {cls.name} declares NAME but is not "
                f"decorated with @register_policy; it will be invisible "
                f"to policy specs and 'repro policy list'"))

        params_value = _class_assign(cls, "PARAMS")
        declared = _declared_param_names(params_value) \
            if params_value is not None else []
        names = [n for n in declared if n is not None]
        seen: set[str] = set()
        for n in names:
            if n in seen:
                findings.append(src.finding(
                    params_value or cls, "registry",
                    f"policy class {cls.name} declares parameter {n!r} "
                    f"twice in PARAMS"))
            seen.add(n)

        # A class declaring its own PARAMS must keep them in sync with
        # __init__ and every self.params read; classes without PARAMS may
        # consume a base class's schema, which we cannot see here.
        if params_value is None or len(names) != len(declared):
            return findings

        init = next((s for s in cls.body
                     if isinstance(s, ast.FunctionDef)
                     and s.name == "__init__"), None)
        if init is not None:
            arg_names = [a.arg for a in
                         init.args.posonlyargs + init.args.args
                         + init.args.kwonlyargs][1:]  # drop self
            for arg in arg_names:
                if arg not in seen:
                    findings.append(src.finding(
                        init, "registry",
                        f"{cls.name}.__init__ takes parameter {arg!r} "
                        f"which PARAMS does not declare; the registry "
                        f"constructs policies from declared parameters "
                        f"only"))

        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                for where, key in _params_reads(stmt):
                    if key not in seen:
                        findings.append(src.finding(
                            where, "registry",
                            f"{cls.name} reads self.params[{key!r}] but "
                            f"PARAMS does not declare {key!r}; the read "
                            f"raises KeyError when the parameter is "
                            f"omitted"))
        return findings
