"""Figure 13: LLC miss rate for the shared-cache-friendly workloads under
shared, private, and adaptive LLCs — the private organization inflates it
(paper: +27.9 pp average, up to +52.3 pp); adaptive stays at shared level."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, summary_row
from repro.workloads.catalog import CATEGORIES

MODES = ["shared", "private", "adaptive"]

TITLE = "Figure 13 — LLC miss rate, shared-friendly apps"
SLUG = "fig13"
PAPER_CLAIM = ("Privatizing the LLC inflates the miss rate of "
               "shared-cache-friendly workloads (paper: +27.9 pp average); "
               "the adaptive LLC keeps it at the shared level.")
CHART = ("benchmark", ["shared_miss", "private_miss", "adaptive_miss"])


def _delta(mode: str):
    """Measure: the mode's AVG miss rate minus the shared LLC's."""
    def measure(rows):
        avg = summary_row(rows, "benchmark", "AVG")
        return avg[f"{mode}_miss"] - avg["shared_miss"]
    return measure


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("private_inflates_miss_rate",
              "Private LLC raises the average miss rate of shared-friendly "
              "apps", _delta("private"), ">=", 0.0),
        Trend("adaptive_stays_at_shared_level",
              "Adaptive LLC keeps the average miss rate within 2 pp of the "
              "shared LLC", _delta("adaptive"), "<=", 0.02),
        Trend("private_inflation_size",
              "Private LLC raises the average miss rate of shared-friendly "
              "apps by over 15 pp", _delta("private"), ">", 0.15,
              paper=0.279),
        Trend("adaptive_not_far_below_shared",
              "Adaptive LLC's average miss rate is at most 10 pp below the "
              "shared LLC's", _delta("adaptive"), ">=", -0.1),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed ``(benchmark, mode)``."""
    cfg = experiment_config()
    return {(abbr, mode): RunSpec.single(abbr, mode, cfg, scale=scale)
            for abbr in CATEGORIES["shared"] for mode in MODES}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    sums = {m: 0.0 for m in MODES}
    for abbr, by_mode in nested(results).items():
        row = {"benchmark": abbr}
        for m in MODES:
            row[f"{m}_miss"] = by_mode[m].llc_miss_rate
            sums[m] += by_mode[m].llc_miss_rate
        out.append(row)
    n = len(out)
    out.append({"benchmark": "AVG",
                **{f"{m}_miss": sums[m] / n for m in MODES}})
    return out
