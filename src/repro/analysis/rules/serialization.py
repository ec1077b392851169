"""``serialization``: round-trip and content-key coverage of dataclasses.

The campaign cache keys runs by the SHA-256 of a config's canonical dict
(:func:`repro.config.canonical_key`).  A dataclass field that exists on
the object but never makes it into ``to_dict`` silently *aliases cache
entries*: two different configurations hash to the same key and the
second run returns the first run's result.  A field missing from
``from_dict`` breaks the round trip instead.  Both failure modes are
invisible until a cache hit goes wrong, so this rule checks the contract
statically.

For every ``@dataclass`` that defines **both** ``to_dict`` and
``from_dict`` in its own body (classes inheriting a generic
``asdict``-based implementation have nothing to get wrong), each
non-underscore, non-``ClassVar`` field must be *covered* in each method:

* a string constant equal to the field name anywhere in the method,
* a ``self.<field>`` / ``cls.<field>`` attribute access in the method,
* membership in a class-level ``_NAME = ("a", "b", ...)`` string
  collection (the ``_SCALAR_FIELDS`` idiom — the methods iterate it),
* or blanket coverage: ``dataclasses.asdict`` in ``to_dict``; a ``**``
  splat call (``cls(**kwargs)``) in ``from_dict``.

Separately, ``del d["field"]`` / ``d.pop("field")`` inside ``to_dict``
drops a field from the serialized form — and therefore from the content
key.  That is occasionally the *point* (elide-at-default fields kept out
of the key for cache compatibility), so the sanctioned spelling is an
explicit ``# repro: key-exempt(field)`` pragma; unexempted drops are
flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Rule, SourceFile, call_name, register_rule
from repro.analysis.findings import Finding


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if call_name(target) == "dataclass":
            return True
    return False


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """Instance fields: class-level annotated names, minus underscore
    names and ``ClassVar`` annotations."""
    fields: list[str] = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) \
                or not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        ann = stmt.annotation
        base = ann.value if isinstance(ann, ast.Subscript) else ann
        if call_name(base) in ("ClassVar", "InitVar"):
            continue
        fields.append(name)
    return fields


def _class_collection_strings(cls: ast.ClassDef) -> set[str]:
    """Strings inside class-level tuple/list constant assignments — the
    ``_SCALAR_FIELDS = ("ipc", "cycles", ...)`` idiom that ``to_dict`` /
    ``from_dict`` iterate."""
    out: set[str] = set()
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, (ast.Tuple, ast.List)):
            continue
        strings = [elt.value for elt in stmt.value.elts
                   if isinstance(elt, ast.Constant)
                   and isinstance(elt.value, str)]
        if strings and len(strings) == len(stmt.value.elts):
            out.update(strings)
    return out


def _method_coverage(fn: ast.FunctionDef) -> set[str]:
    """Field names a method provably touches: string constants,
    ``self.x`` / ``cls.x`` attribute reads, and keyword-argument names
    (``cls(beta=...)`` restores ``beta``)."""
    covered: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            covered.add(node.value)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls"):
            covered.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            covered.add(node.arg)
    return covered


def _has_asdict_call(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, ast.Call)
               and call_name(node.func) == "asdict"
               for node in ast.walk(fn))


def _has_splat_call(fn: ast.FunctionDef) -> bool:
    """A ``f(**kwargs)`` call forwards every key it was handed, so the
    method covers all fields at once (the ``cls(**kwargs)`` idiom)."""
    return any(isinstance(node, ast.Call)
               and any(kw.arg is None for kw in node.keywords)
               for node in ast.walk(fn))


def _dropped_keys(fn: ast.FunctionDef
                  ) -> list[tuple[ast.AST, str]]:
    """``(node, key)`` for every ``del d["key"]`` / ``d.pop("key")``."""
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    out.append((node, target.slice.value))
        elif isinstance(node, ast.Call) \
                and call_name(node.func) == "pop" \
                and isinstance(node.func, ast.Attribute) \
                and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            out.append((node, node.args[0].value))
    return out


@register_rule
class SerializationRule(Rule):
    """Every dataclass field must survive to_dict/from_dict, and may only
    leave the content key via ``# repro: key-exempt``."""

    NAME = "serialization"
    DESCRIPTION = ("dataclass fields must appear in to_dict/from_dict; "
                   "cache-key drops need '# repro: key-exempt'")

    def check(self, src: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                findings.extend(self._check_class(src, node))
        return findings

    def _check_class(self, src: SourceFile,
                     cls: ast.ClassDef) -> list[Finding]:
        to_dict = _method(cls, "to_dict")
        from_dict = _method(cls, "from_dict")
        if to_dict is None or from_dict is None:
            return []
        findings: list[Finding] = []
        fields = _dataclass_fields(cls)
        shared = _class_collection_strings(cls)

        to_cover = shared | _method_coverage(to_dict)
        from_cover = shared | _method_coverage(from_dict)
        to_blanket = _has_asdict_call(to_dict)
        from_blanket = _has_splat_call(from_dict)

        for name in fields:
            if not to_blanket and name not in to_cover:
                findings.append(src.finding(
                    to_dict, "serialization",
                    f"{cls.name}.to_dict does not serialize field "
                    f"{name!r}; two configs differing only in {name!r} "
                    f"would collide in the content cache"))
            if not from_blanket and name not in from_cover:
                findings.append(src.finding(
                    from_dict, "serialization",
                    f"{cls.name}.from_dict does not restore field "
                    f"{name!r}; the serialization round trip is lossy"))

        field_set = set(fields)
        for where, key in _dropped_keys(to_dict):
            if key in field_set and key not in src.pragmas.key_exempt:
                findings.append(src.finding(
                    where, "serialization",
                    f"{cls.name}.to_dict drops field {key!r} from the "
                    f"serialized form (and the content key); if that is "
                    f"intentional, declare '# repro: key-exempt({key})'"))
        return findings
