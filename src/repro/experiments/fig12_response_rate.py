"""Figure 12: LLC response rate (flits/cycle) for the private-cache-friendly
workloads under shared, private, and adaptive LLCs."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, summary_value
from repro.sim.stats import harmonic_mean
from repro.workloads.catalog import CATEGORIES

MODES = ["shared", "private", "adaptive"]

TITLE = "Figure 12 — LLC response rate (flits/cycle), private-friendly apps"
SLUG = "fig12"
PAPER_CLAIM = ("On private-cache-friendly workloads the private LLC "
               "delivers a higher response rate than the shared LLC, and "
               "the adaptive LLC captures (most of) that gain.")
CHART = ("benchmark", ["shared_resp", "private_resp", "adaptive_resp"])


def _hm_ratio(mode: str):
    """Measure: the mode's HM response rate relative to shared."""
    return summary_value(f"{mode}_resp", "benchmark", "HM(ratio)")


def _smallest_private_gain(rows) -> float:
    """Smallest private minus shared response rate over the apps."""
    return min(r["private_resp"] - r["shared_resp"] for r in rows
               if r["benchmark"] != "HM(ratio)")


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``.

    The ``HM(ratio)`` summary row holds each mode's harmonic-mean response
    rate *relative to shared*, so the shared column is identically 1.
    """
    return [
        Trend("private_raises_response_rate",
              "Private LLC response-rate ratio vs shared >= 1 (HM over "
              "private-friendly apps)", _hm_ratio("private"), ">=", 1.0),
        Trend("adaptive_captures_gain",
              "Adaptive LLC response-rate ratio vs shared >= 1 (HM over "
              "private-friendly apps)", _hm_ratio("adaptive"), ">=", 1.0),
        Trend("private_response_rate_gain_size",
              "Private raises the response rate over 15% (HM ratio vs "
              "shared)", _hm_ratio("private"), ">", 1.15, paper=1.35),
        Trend("adaptive_response_rate_gain_size",
              "Adaptive raises the response rate over 5% (HM ratio vs "
              "shared)", _hm_ratio("adaptive"), ">", 1.05),
        Trend("every_private_friendly_app_gains",
              "Every private-friendly app gets a higher response rate from "
              "the private LLC than from the shared LLC (smallest private "
              "- shared, flits/cycle)", _smallest_private_gain, ">", 0.0),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed ``(benchmark, mode)``."""
    cfg = experiment_config()
    return {(abbr, mode): RunSpec.single(abbr, mode, cfg, scale=scale)
            for abbr in CATEGORIES["private"] for mode in MODES}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    ratios = {m: [] for m in MODES}
    for abbr, by_mode in nested(results).items():
        base = by_mode["shared"].llc_response_rate
        row = {"benchmark": abbr}
        for m in MODES:
            row[f"{m}_resp"] = by_mode[m].llc_response_rate
            ratios[m].append(by_mode[m].llc_response_rate / base)
        out.append(row)
    hm = {"benchmark": "HM(ratio)"}
    for m in MODES:
        hm[f"{m}_resp"] = harmonic_mean(ratios[m])
    out.append(hm)
    return out
