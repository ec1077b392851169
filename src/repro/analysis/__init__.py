"""``repro.analysis``: the simulator-aware static analysis pass.

The reproduction's guarantees — byte-identical golden captures,
content-keyed caching, event≡batch parity, a zero-allocation hot
path — are invariants of *how the code is written*, not just what it
computes.  This package checks them statically: an AST-based rule engine
(``determinism``, ``hot-path``, ``continuation``, ``serialization``,
``registry``), ``# repro:`` source pragmas, and a committed baseline for
grandfathered findings.  Entry point: ``repro check``.

Rules are registered components in the one ``NAME[:k=v,...]`` registry
idiom of :mod:`repro.analysis.registry`, which LLC policies, placements
and arrival processes share: one :class:`Param` schema, one
:class:`~repro.analysis.registry.Registry` and one spec parser
(:func:`parse_spec`).

The package imports nothing from the simulator (stdlib only) and
type-checks under ``mypy --strict``; the simulator's registries import
:mod:`repro.analysis.registry` from it.
"""

from __future__ import annotations

from repro.analysis.base import (Rule, SourceFile, available_rules,
                                 create_rule, default_rules, register_rule,
                                 rule_class)
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.checker import (CheckReport, check_source,
                                    collect_files, run_check)
from repro.analysis.config import DEFAULT_BASELINE, DEFAULT_PATHS
from repro.analysis.findings import Finding
from repro.analysis.pragmas import FilePragmas, scan_pragmas
from repro.analysis.registry import Param, parse_spec
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CheckReport",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FilePragmas",
    "Finding",
    "Param",
    "Rule",
    "SourceFile",
    "available_rules",
    "check_source",
    "collect_files",
    "create_rule",
    "default_rules",
    "parse_spec",
    "register_rule",
    "render_json",
    "render_text",
    "rule_class",
    "run_check",
    "scan_pragmas",
]
