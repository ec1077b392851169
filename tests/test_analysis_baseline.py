"""Baseline mechanics: grandfather, expire, regenerate deterministically.

The baseline is the checker's ratchet — it may only shrink silently.
These tests pin the three behaviours that make that true: matching
findings are absorbed up to their count (lowest line first), fixed
findings turn their entries *stale* and fail the run, and
``--fix-baseline`` writes a byte-stable file.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import BASELINE_VERSION, Baseline, BaselineEntry
from repro.analysis.findings import Finding


def finding(path="a.py", line=1, col=0, rule="hot-path", message="msg"):
    return Finding(path=path, line=line, col=col, rule=rule,
                   message=message)


# -------------------------------------------------------------- matching
def test_baseline_absorbs_matching_finding():
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg")])
    match = base.apply([finding()])
    assert match.findings[0].baselined
    assert match.stale == []


def test_baseline_is_line_insensitive():
    # The same finding moved 100 lines down still matches.
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg")])
    match = base.apply([finding(line=101)])
    assert match.findings[0].baselined


def test_baseline_count_absorbs_lowest_lines_first():
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg", count=2)])
    match = base.apply([finding(line=30), finding(line=10),
                        finding(line=20)])
    by_line = {f.line: f.baselined for f in match.findings}
    assert by_line == {10: True, 20: True, 30: False}


def test_fixed_finding_makes_entry_stale():
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg")])
    match = base.apply([])
    assert match.stale == base.entries


def test_partial_fix_is_stale_too():
    # count=2 but only one finding left: the entry must be refreshed.
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg", count=2)])
    match = base.apply([finding()])
    assert len(match.stale) == 1
    assert match.findings[0].baselined


def test_unrelated_finding_is_not_absorbed():
    base = Baseline([BaselineEntry("a.py", "hot-path", "msg")])
    match = base.apply([finding(rule="determinism")])
    assert not match.findings[0].baselined
    assert len(match.stale) == 1


# ------------------------------------------------------------ round trip
def test_save_load_round_trip(tmp_path):
    base = Baseline([BaselineEntry("b.py", "determinism", "m2"),
                     BaselineEntry("a.py", "hot-path", "m1", count=3)])
    path = tmp_path / "baseline.json"
    base.save(path)
    loaded = Baseline.load(path)
    assert sorted(e.key() for e in loaded.entries) \
        == sorted(e.key() for e in base.entries)
    assert {e.key(): e.count for e in loaded.entries} \
        == {e.key(): e.count for e in base.entries}


def test_missing_file_is_empty_baseline(tmp_path):
    base = Baseline.load(tmp_path / "nope.json")
    assert base.entries == []


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        Baseline.load(path)


def test_wrong_version_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"version": BASELINE_VERSION + 1, "entries": []}))
    with pytest.raises(ValueError, match="unsupported schema"):
        Baseline.load(path)


# ----------------------------------------------------------- regenerate
def test_from_findings_counts_and_sorts():
    findings = [finding(path="b.py", line=9),
                finding(path="a.py", line=5),
                finding(path="a.py", line=1)]
    base = Baseline.from_findings(findings)
    assert [(e.path, e.count) for e in base.entries] \
        == [("a.py", 2), ("b.py", 1)]


def test_regeneration_is_deterministic():
    findings = [finding(path=p, line=n, message=m)
                for p in ("b.py", "a.py")
                for n, m in ((7, "x"), (3, "y"), (5, "x"))]
    one = Baseline.from_findings(findings).render()
    two = Baseline.from_findings(list(reversed(findings))).render()
    assert one == two


def test_regenerated_baseline_silences_its_findings():
    findings = [finding(line=1), finding(line=2),
                finding(rule="determinism", line=3)]
    base = Baseline.from_findings(findings)
    match = base.apply(findings)
    assert all(f.baselined for f in match.findings)
    assert match.stale == []
