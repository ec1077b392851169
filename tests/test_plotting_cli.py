"""Tests for terminal plotting, file render backends, and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import plotting
from repro.experiments.plotting import grouped_chart, hbar, render_chart_file
from repro.experiments.tables import rows_to_html, rows_to_markdown


# ---------------------------------------------------------------- plotting
def test_hbar_scales():
    assert hbar(1.0, 1.0, width=10).startswith("█" * 10)
    assert hbar(0.0, 1.0, width=10).strip() == ""
    assert len(hbar(0.5, 1.0, width=10)) == 10
    with pytest.raises(ValueError):
        hbar(1.0, 0.0)


def test_hbar_clamps_overflow():
    assert hbar(5.0, 1.0, width=4) == "████"


def test_grouped_chart_skips_nan():
    rows = [{"b": "X", "a_norm": 1.0, "b_norm": float("nan")}]
    out = grouped_chart(rows, "b", ["a_norm", "b_norm"])
    assert "a_norm" in out
    assert "b_norm" not in out


# ----------------------------------------------------------- file backends
def test_render_chart_file_text_fallback(tmp_path, monkeypatch):
    """Without matplotlib the backend degrades to a text chart file."""
    monkeypatch.setattr(plotting, "matplotlib_module", lambda: None)
    rows = [{"b": "VA", "ipc": 1.2}, {"b": "MM", "ipc": 0.8}]
    path = render_chart_file(rows, "b", ["ipc"], "demo",
                             str(tmp_path / "chart"))
    assert path.endswith("chart.txt")
    text = open(path, encoding="utf-8").read()
    assert "demo" in text and "VA" in text and "1.200" in text


def test_rows_to_markdown_and_html():
    rows = [{"b": "VA", "ipc": 1.23456, "note": None}]
    md = rows_to_markdown(rows)
    assert md.splitlines()[0] == "| b | ipc | note |"
    assert "| VA | 1.235 |  |" in md
    html = rows_to_html(rows)
    assert "<th>ipc</th>" in html and "<td>1.235</td>" in html
    assert rows_to_markdown([]) == "(no rows)"
    assert rows_to_html([]) == "<p>(no rows)</p>"


def test_rows_to_html_escapes():
    html = rows_to_html([{"k": "<script>"}])
    assert "<script>" not in html and "&lt;script&gt;" in html


# --------------------------------------------------------------------- CLI
def test_parser_commands(capsys):
    parser = build_parser()
    args = parser.parse_args(["run", "VA", "--policy", "shared"])
    assert args.benchmark == "VA"
    args = parser.parse_args(["figure", "13", "--scale", "0.5"])
    assert args.number == "13"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "NOPE"])
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])
    for verb in (["run", "VA"], ["compare", "VA"], ["figure", "13"],
                 ["report"], ["sweep"]):
        for jobs, message in (("0", "jobs must be >= 1"),
                              ("-2", "jobs must be >= 1"),
                              ("two", "not an integer")):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*verb, "--jobs", jobs])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "LUD" in out and "VA" in out


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "80 SMs, 1400 MHz" in out
    assert "B+TREE Search" in out


def test_cli_analyze(capsys):
    assert main(["analyze", "SN", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "shared_access_fraction" in out
    assert "OK" in out


def test_cli_run_small(capsys):
    assert main(["run", "VA", "--policy", "shared", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
