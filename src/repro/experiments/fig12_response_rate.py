"""Figure 12: LLC response rate (flits/cycle) for the private-cache-friendly
workloads under shared, private, and adaptive LLCs."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, summary_row, value_at_least
from repro.sim.stats import harmonic_mean
from repro.workloads.catalog import CATEGORIES

MODES = ["shared", "private", "adaptive"]

TITLE = "Figure 12 — LLC response rate (flits/cycle), private-friendly apps"
SLUG = "fig12"
PAPER_CLAIM = ("On private-cache-friendly workloads the private LLC "
               "delivers a higher response rate than the shared LLC, and "
               "the adaptive LLC captures (most of) that gain.")
CHART = ("benchmark", ["shared_resp", "private_resp", "adaptive_resp"])


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``.

    The ``HM(ratio)`` summary row holds each mode's harmonic-mean response
    rate *relative to shared*, so the shared column is identically 1.
    """

    def gain_size(rows):
        hm = summary_row(rows, "benchmark", "HM(ratio)")
        private, adaptive = hm["private_resp"], hm["adaptive_resp"]
        return (private > 1.15 and adaptive > 1.05,
                f"HM ratio: private {private:.3f} (want > 1.15), "
                f"adaptive {adaptive:.3f} (want > 1.05)")

    def every_app_gains(rows):
        losers = [r["benchmark"] for r in rows
                  if r["benchmark"] != "HM(ratio)"
                  and not r["private_resp"] > r["shared_resp"]]
        return (not losers,
                f"private <= shared on: {', '.join(losers)}" if losers
                else "private > shared on every private-friendly app")

    return [
        Trend("private_raises_response_rate",
              "Private LLC response-rate ratio vs shared >= 1 (HM over "
              "private-friendly apps)",
              value_at_least("private_resp", 1.0, "benchmark", "HM(ratio)")),
        Trend("adaptive_captures_gain",
              "Adaptive LLC response-rate ratio vs shared >= 1 (HM over "
              "private-friendly apps)",
              value_at_least("adaptive_resp", 1.0, "benchmark", "HM(ratio)")),
        Trend("response_rate_gain_size",
              "Private raises the response rate over 15% and adaptive over "
              "5% (HM ratio vs shared; paper: 1.35x)", gain_size),
        Trend("every_private_friendly_app_gains",
              "Every private-friendly app gets a higher response rate from "
              "the private LLC than from the shared LLC", every_app_gains),
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
