"""Tests for the reproduction-report subsystem.

Covers the trend checker's PASS/WARN/ERROR logic, every figure driver's
declarative self-description, the manifest's provenance fields, an
HTML/MD render smoke pass on a 2-figure mini-campaign, and idempotent
re-rendering from a warm cache.
"""

import json
import os

import pytest

from repro.cli import main
from repro.config import canonical_key
from repro.experiments import FIGURE_MODULES, figure_module
from repro.experiments.campaign import Campaign
from repro.report.builder import ReportBuilder
from repro.report.trends import (
    ERROR,
    PASS,
    WARN,
    Trend,
    category_row,
    evaluate_trends,
    overall_status,
    ratio_at_least,
    summary_row,
    value_at_least,
    value_at_most,
)

TINY = 0.02
MINI_FIGURES = ["12", "13"]  # cheapest drivers: 33 unique tiny runs


# ----------------------------------------------------------------- trends
def test_evaluate_trends_pass_warn_error():
    trends = [
        Trend("holds", "always true", lambda rows: (True, "yes")),
        Trend("fails", "always false", lambda rows: (False, "no")),
        Trend("raises", "crashes", lambda rows: rows[999]),
    ]
    results = evaluate_trends(trends, [{"x": 1}])
    assert [r.status for r in results] == [PASS, WARN, ERROR]
    assert results[0].observed == "yes"
    assert "IndexError" in results[2].observed
    assert overall_status(results) == ERROR
    assert overall_status(results[:2]) == WARN
    assert overall_status(results[:1]) == PASS
    assert overall_status([]) == WARN  # no declared trends can't claim PASS


def test_trend_helpers():
    rows = [{"label": "A", "v": 0.5, "w": 1.0},
            {"label": "AVG", "v": 2.0, "w": 1.0}]
    assert summary_row(rows, "label", "AVG")["v"] == 2.0
    with pytest.raises(KeyError):
        summary_row(rows, "label", "HM")
    assert value_at_least("v", 1.5, "label", "AVG")(rows)[0]
    assert not value_at_least("v", 2.5, "label", "AVG")(rows)[0]
    assert value_at_most("v", 2.0, "label", "AVG")(rows)[0]
    ok, observed = ratio_at_least("v", "w", 1.5, "label", "AVG")(rows)
    assert ok and "2.000" in observed
    grouped = [{"benchmark": "HM", "category": c, "v": v}
               for c, v in (("private", 1.2), ("shared", 0.8))]
    assert category_row(grouped, "HM", "shared")["v"] == 0.8
    with pytest.raises(KeyError):
        category_row(grouped, "AVG", "shared")


def test_every_figure_module_self_describes():
    for number in FIGURE_MODULES:
        module = figure_module(number)
        assert module.TITLE and module.SLUG and module.PAPER_CLAIM
        label_key, value_keys = module.CHART
        assert isinstance(label_key, str) and value_keys
        trends = module.expected_trends()
        assert trends, f"figure {number} declares no trends"
        for trend in trends:
            assert trend.name and trend.claim and callable(trend.check)


def _status(module, name, rows):
    trend = next(t for t in module.expected_trends() if t.name == name)
    return evaluate_trends([trend], rows)[0].status


def test_magnitude_trends_warn_when_no_point_qualifies():
    """A failed claim on well-formed rows is WARN, not ERROR: the trend
    reports it rather than tripping over an empty selection."""
    fig14, fig16 = figure_module("14"), figure_module("16")
    flat = [{"benchmark": "AN", "noc_norm": 0.99},
            {"benchmark": "AVG", "noc_norm": 0.99}]
    saving = [{"benchmark": "AN", "noc_norm": 0.7},
              {"benchmark": "AVG", "noc_norm": 0.9}]
    assert _status(fig14, "switchers_save_noc_energy", flat) == WARN
    assert _status(fig14, "switchers_save_noc_energy", saving) == PASS

    def points(l1_gains):
        return ([{"group": "sm_count", "point": p, "adaptive_over_shared": g}
                 for p, g in (("40 SMs", 1.0), ("80 SMs", 1.1))]
                + [{"group": "l1_size", "point": p, "adaptive_over_shared": g}
                   for p, g in zip(("48KB", "128KB"), l1_gains)])

    win = "every_group_shows_a_win"
    assert _status(fig16, win, points((1.0, 1.01))) == WARN
    assert _status(fig16, win, points((1.0, 1.05))) == PASS


# ---------------------------------------------------------------- builder
@pytest.fixture(scope="module")
def mini_report(tmp_path_factory):
    """One 2-figure build shared by the smoke assertions below."""
    out = tmp_path_factory.mktemp("report")
    cache = tmp_path_factory.mktemp("cache")
    builder = ReportBuilder(str(out), scale=TINY,
                            campaign=Campaign(cache_dir=str(cache)),
                            figures=MINI_FIGURES)
    result = builder.build()
    return result, str(out), str(cache)


def test_report_smoke_pages(mini_report):
    result, out, _ = mini_report
    assert [f.number for f in result.figures] == MINI_FIGURES
    assert [canonical_key(f.rows) for f in result.figures] == [
        "4d9da7c4537745ef2296e8faa37f84ca72790c06ad9c6d9cc306a122d7274cf5",
        "c1f94a46aa812073fa319151dd32e5bca9f84602df2237fc3227fb9721376950",
    ]
    for fmt in ("html", "md"):
        assert os.path.exists(os.path.join(out, f"index.{fmt}"))
    for fig in result.figures:
        assert fig.status in (PASS, WARN)  # tiny scale may WARN, never ERROR
        fig_dir = os.path.join(out, fig.slug)
        for name in ("index.html", "index.md", "rows.json"):
            assert os.path.exists(os.path.join(fig_dir, name))
        page = open(os.path.join(fig_dir, "index.html"),
                    encoding="utf-8").read()
        assert f"badge-{fig.status}" in page
        assert fig.cache_keys[0] in page
        md = open(os.path.join(fig_dir, "index.md"), encoding="utf-8").read()
        assert f"**[{fig.status}]**" in md
        rows = json.load(open(os.path.join(fig_dir, "rows.json"),
                              encoding="utf-8"))
        assert rows == json.loads(json.dumps(fig.rows, default=str))


def test_report_chart_text_fallback_without_matplotlib(mini_report):
    result, out, _ = mini_report
    # matplotlib is not installed in the test environment, so the chart
    # must degrade to the text backend (and the page must inline it).
    for fig in result.figures:
        assert fig.chart_file.endswith((".png", ".txt"))
        assert os.path.exists(os.path.join(out, fig.chart_file))


def test_report_manifest_provenance(mini_report):
    result, out, cache = mini_report
    manifest = json.load(open(result.manifest_path, encoding="utf-8"))
    assert manifest["version"] == 1
    assert manifest["scale"] == TINY
    assert manifest["cache_dir"] == cache
    assert manifest["config"]["cache_key"]
    assert manifest["config"]["baseline"]["num_sms"] == 80
    assert set(manifest["campaign"]) == {"executed", "cache_hits",
                                         "memo_hits"}
    assert manifest["campaign"]["executed"] == 33  # 5*3 + 6*3 unique specs
    assert "commit" in manifest["git"] and "dirty" in manifest["git"]
    figs = {f["number"]: f for f in manifest["figures"]}
    assert set(figs) == set(MINI_FIGURES)
    for entry in figs.values():
        assert entry["status"] in (PASS, WARN)
        assert entry["cache_keys"] and entry["trends"]
        for trend in entry["trends"]:
            assert {"name", "claim", "status", "observed"} <= set(trend)


def test_report_idempotent_warm_rerender(mini_report, tmp_path):
    result, _, cache = mini_report
    campaign = Campaign(cache_dir=cache)
    builder = ReportBuilder(str(tmp_path), scale=TINY, campaign=campaign,
                            figures=MINI_FIGURES, formats=["md"])
    rerun = builder.build()
    assert campaign.executed == 0  # every spec served from the warm cache
    assert campaign.cache_hits == 33
    assert not rerun.has_errors
    # Same rows, same badges: the artifact is a pure function of the cache.
    for a, b in zip(result.figures, rerun.figures):
        assert json.dumps(a.rows, default=str) == json.dumps(b.rows,
                                                             default=str)
        assert a.status == b.status
    assert os.path.exists(os.path.join(str(tmp_path), "index.md"))
    assert not os.path.exists(os.path.join(str(tmp_path), "index.html"))


def test_builder_rejects_unknown_inputs(tmp_path):
    with pytest.raises(ValueError):
        ReportBuilder(str(tmp_path), figures=["99"])
    with pytest.raises(ValueError):
        ReportBuilder(str(tmp_path), formats=["pdf"])
    with pytest.raises(ValueError, match="no figures"):
        ReportBuilder(str(tmp_path), figures=[])
    with pytest.raises(ValueError, match="more than once"):
        ReportBuilder(str(tmp_path), figures=["13", "12", "13"])


# -------------------------------------------------------------------- CLI
def test_cli_report_verb(tmp_path, capsys):
    out = tmp_path / "artifact"
    code = main(["report", "--scale", "smoke", "--figures", "13",
                 "--format", "md", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fig 13" in stdout
    assert (out / "index.md").exists()
    assert (out / "manifest.json").exists()
    assert not (out / "index.html").exists()


def test_cli_report_rejects_unknown_figure(tmp_path, capsys):
    code = main(["report", "--figures", "99", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown figures" in capsys.readouterr().err
    for figures, message in ((",", "no figures"), ("", "no figures"),
                             ("13,13", "more than once")):
        code = main(["report", "--figures", figures, "--out",
                     str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)  # nothing built


def test_cli_scale_presets():
    from repro.cli import SCALE_PRESETS, parse_scale

    assert parse_scale("small") == SCALE_PRESETS["small"]
    assert parse_scale("0.3") == 0.3
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_scale("big")
    for bad in ("-1", "0", "nan", "inf", "-inf"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scale(bad)
