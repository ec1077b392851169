"""The check driver: collect files, run rules, apply pragmas + baseline.

One entry point, :func:`run_check`, used identically by the ``repro
check`` CLI verb, the CI gate, and the test suite.  The pipeline:

1. collect ``*.py`` files under the given paths (sorted, so reports and
   ``--fix-baseline`` output are deterministic);
2. parse each file once; a syntax error becomes a ``parse-error``
   finding rather than aborting the run (the checker must be usable on
   broken trees — that is when you need it);
3. run every rule on every file;
4. drop findings suppressed by a same-line ``# repro: allow(rule)``;
5. apply the committed baseline: matching findings are marked
   ``baselined``; entries with no matching finding are *stale*.

A run is *ok* when there are no non-baselined findings and no stale
entries.  Stale entries fail the run by design: a fixed violation must
leave the baseline (``repro check --fix-baseline``), so the baseline
only ever shrinks unless a reviewer watches it grow in a diff.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import Rule, SourceFile, default_rules
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.config import is_sim_path
from repro.analysis.findings import Finding
from repro.analysis.pragmas import scan_pragmas


@dataclass
class CheckReport:
    """Everything one check run produced.

    Attributes:
        findings: all findings, sorted, baselined ones marked.
        stale: baseline entries that matched nothing (must be removed).
        files_checked: how many files were parsed and rule-checked.
        unknown_pragmas: ``(path, line, directive)`` for unrecognized
            ``# repro:`` directives (a typo silently deactivating a
            pragma is itself a finding-worthy condition).
    """

    findings: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    unknown_pragmas: list[tuple[str, int, str]] = field(
        default_factory=list)

    @property
    def new_findings(self) -> list[Finding]:
        return [f for f in self.findings if not f.baselined]

    @property
    def ok(self) -> bool:
        """True when the run should exit 0: nothing new, nothing stale,
        no mistyped pragmas."""
        return not self.new_findings and not self.stale \
            and not self.unknown_pragmas


def collect_files(paths: tuple[str, ...] | list[str]) -> list[Path]:
    """``*.py`` files under ``paths`` (files taken verbatim, directories
    walked recursively), deduplicated and sorted.

    Raises:
        FileNotFoundError: when a given path does not exist.
    """
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            out.add(p)
        elif p.is_dir():
            out.update(p.rglob("*.py"))
        else:
            raise FileNotFoundError(f"check path does not exist: {raw}")
    return sorted(out)


def _report_path(path: Path) -> str:
    """The stable path findings report: relative to the working directory
    when possible, posix separators always."""
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def check_source(path: str, source: str,
                 rules: list[Rule]) -> list[Finding]:
    """Run ``rules`` over one in-memory source file; allow-pragmas are
    honored, the baseline is not (that is :func:`run_check`'s job)."""
    pragmas = scan_pragmas(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=int(exc.lineno or 1),
                        col=int(exc.offset or 0), rule="parse-error",
                        message="file does not parse: "
                                f"{exc.msg or 'syntax error'}")]
    src = SourceFile(path=path, tree=tree, pragmas=pragmas,
                     is_sim=is_sim_path(path))
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(src))
    return sorted(
        (f for f in findings if not pragmas.allows_on(f.line, f.rule)),
        key=Finding.sort_key)


def run_check(paths: tuple[str, ...] | list[str],
              rules: list[Rule] | None = None,
              baseline: Baseline | None = None) -> CheckReport:
    """Check ``paths`` with ``rules`` (default: every registered rule)
    against ``baseline`` (default: empty)."""
    if rules is None:
        rules = default_rules()
    report = CheckReport()
    all_findings: list[Finding] = []
    scanned: set[str] = set()
    for file_path in collect_files(paths):
        source = file_path.read_text(encoding="utf-8")
        rel = _report_path(file_path)
        scanned.add(rel)
        all_findings.extend(check_source(rel, source, rules))
        for line, directive in scan_pragmas(source).unknown:
            report.unknown_pragmas.append((rel, line, directive))
        report.files_checked += 1
    match = (baseline or Baseline()).apply(all_findings)
    report.findings = sorted(match.findings, key=Finding.sort_key)
    # A partial scan (file subset, rule subset) could not have produced
    # findings outside its scope — only entries this run *could* have
    # refreshed count as stale, so `repro check --rules X one_file.py`
    # stays usable without the full-tree baseline fighting back.
    active = {rule.NAME for rule in rules}
    report.stale = [entry for entry in match.stale
                    if entry.path in scanned and entry.rule in active]
    return report
