"""Tests for the reproduction-report subsystem.

Covers the trend checker's PASS/WARN/ERROR logic, every figure driver's
declarative self-description, the manifest's provenance fields, an
HTML/MD render smoke pass on a 2-figure mini-campaign, and idempotent
re-rendering from a warm cache.
"""

import json
import math
import operator
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
    summary_row,
    summary_value,
)

TINY = 0.02
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt}
MINI_FIGURES = ["12", "13"]  # cheapest drivers: 33 unique tiny runs


# ----------------------------------------------------------------- trends
def test_evaluate_trends_pass_warn_error():
    """A table of every op just below, at and just above a bar of 2
    (strict versus inclusive bounds), then a row-dependent bar and
    raising measures/bars."""
    below, above = 2.0 - 1e-9, 2.0 + 1e-9
    table = [  # (op, value, status)
        (">=", below, WARN), (">=", 2.0, PASS), (">=", above, PASS),
        (">", below, WARN), (">", 2.0, WARN), (">", above, PASS),
        ("<=", below, PASS), ("<=", 2.0, PASS), ("<=", above, WARN),
        ("<", below, PASS), ("<", 2.0, WARN), ("<", above, WARN),
    ]
    trends = [Trend(f"{op} {value}", "claim", lambda rows, v=value: v, op,
                    2.0, paper=1.5)
              for op, value, _ in table]
    results = evaluate_trends(trends, [])
    for (op, value, status), result in zip(table, results):
        assert (result.status, result.op) == (status, op)
        assert (result.value, result.bar, result.paper) == (value, 2.0, 1.5)
        # Positive margin: the claim holds with room to spare.
        assert result.margin == (value - 2.0 if op[0] == ">" else 2.0 - value)
        assert result.observed == f"{value:.4g} {op} 2"

    rows = [{"label": "AVG", "v": 2.0, "best": 2.01}]
    declared = [
        Trend("row_bar", "v clears best - 0.02",
              summary_value("v", "label", "AVG"), ">=",
              lambda rows: summary_row(rows, "label", "AVG")["best"] - 0.02),
        Trend("no_hm_row", "a missing summary row",
              summary_value("v", "label", "HM"), ">=", 1.0),
        Trend("no_category_row", "a missing category row for the bar",
              summary_value("v", "label", "AVG"), "<",
              lambda rows: category_row(rows, "HM", "shared")["v"]),
    ]
    row_bar, no_hm, no_category = evaluate_trends(declared, rows)
    assert row_bar.status == PASS
    assert row_bar.bar == pytest.approx(1.99)
    assert row_bar.margin == pytest.approx(0.01)
    for result in (no_hm, no_category):
        assert result.status == ERROR
        assert "KeyError" in result.observed
        assert (result.value, result.bar, result.margin) == (None, None, None)
    assert no_hm.to_dict()["op"] == ">="
    with pytest.raises(ValueError, match="unknown op"):
        Trend("bad", "claim", lambda rows: 1.0, "==", 1.0)

    assert overall_status([row_bar, no_hm]) == ERROR
    assert overall_status(results[:2]) == WARN
    assert overall_status(results[1:3]) == PASS
    assert overall_status([]) == WARN  # no declared trends can't claim PASS


def test_trend_helpers():
    rows = [{"label": "A", "v": 0.5}, {"label": "AVG", "v": 2.0}]
    assert summary_row(rows, "label", "AVG")["v"] == 2.0
    assert summary_value("v", "label", "AVG")(rows) == 2.0
    with pytest.raises(KeyError):
        summary_row(rows, "label", "HM")
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
            assert trend.name and trend.claim and callable(trend.measure)
            assert trend.op in OPS


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
    assert manifest["version"] == 2
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
            assert {"name", "claim", "status", "observed", "op",
                    "paper"} <= set(trend)
            value, bar, margin = trend["value"], trend["bar"], trend["margin"]
            assert all(math.isfinite(x) for x in (value, bar, margin))
            holds = OPS[trend["op"]](value, bar)
            assert (trend["status"] == PASS) == holds


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
