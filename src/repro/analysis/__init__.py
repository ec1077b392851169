"""``repro.analysis``: the simulator-aware static analysis pass.

The reproduction's guarantees — byte-identical golden captures,
content-keyed caching, event≡batch parity, a zero-allocation hot
path — are invariants of *how the code is written*, not just what it
computes.  This package checks them statically: an AST-based rule engine
(``determinism``, ``hot-path``, ``continuation``, ``serialization``,
``registry``) with the same ``NAME[:k=v,...]`` registry idiom as the
policy layer, ``# repro:`` source pragmas, and a committed baseline for
grandfathered findings.  Entry point: ``repro check``.

The package imports nothing from the simulator (stdlib only), so it runs
on broken trees and type-checks under ``mypy --strict``.
"""

from __future__ import annotations

from repro.analysis.base import Rule, RuleParam, SourceFile
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.checker import (CheckReport, check_source,
                                    collect_files, run_check)
from repro.analysis.config import DEFAULT_BASELINE, DEFAULT_PATHS
from repro.analysis.findings import Finding
from repro.analysis.pragmas import FilePragmas, scan_pragmas
from repro.analysis.registry import (available_rules, create_rule,
                                     default_rules, parse_rule_spec,
                                     register_rule, rule_class)
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CheckReport",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FilePragmas",
    "Finding",
    "Rule",
    "RuleParam",
    "SourceFile",
    "available_rules",
    "check_source",
    "collect_files",
    "create_rule",
    "default_rules",
    "parse_rule_spec",
    "register_rule",
    "render_json",
    "render_text",
    "rule_class",
    "run_check",
    "scan_pragmas",
]
