"""Figure 11: normalized IPC of shared, private, and adaptive LLCs over all
17 benchmarks, grouped by category with HM summary bars."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.metrics.perf import geomean_speedup
from repro.report.trends import Trend, category_row
from repro.sim.stats import harmonic_mean
from repro.workloads.catalog import CATEGORIES

MODES = ["shared", "private", "adaptive"]

TITLE = "Figure 11 — normalized IPC: shared vs private vs adaptive LLC"
SLUG = "fig11"
PAPER_CLAIM = ("The adaptive LLC tracks the better static organization on "
               "every workload class, so its mean normalized IPC is at "
               "least as high as either all-shared or all-private.")
CHART = ("benchmark", ["shared_norm", "private_norm", "adaptive_norm"])


def _hm(category: str, column: str = "adaptive_norm"):
    """Measure: one column of the category's HM row."""
    return lambda rows: category_row(rows, "HM", category)[column]


def _geomean(rows, column: str) -> float:
    return geomean_speedup([r[column] for r in rows if r["benchmark"] != "HM"])


def _best_static_less_slack(rows) -> float:
    """Bar: the better static geomean, less 0.02 of noise slack."""
    return max(_geomean(rows, "shared_norm"),
               _geomean(rows, "private_norm")) - 0.02


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("adaptive_geq_best_static",
              "Adaptive geomean normalized IPC >= max(static shared, "
              "static private) geomean - 0.02",
              lambda rows: _geomean(rows, "adaptive_norm"), ">=",
              _best_static_less_slack),
        Trend("adaptive_keeps_shared_friendly",
              "Adaptive does not give up the shared-friendly apps the way "
              "static private does (HM >= 0.95)", _hm("shared"), ">=", 0.95),
        Trend("adaptive_gains_on_private_friendly",
              "Adaptive gains over 5% on the private-friendly apps (HM)",
              _hm("private"), ">", 1.05, paper=1.28),
        Trend("static_private_loses_shared_friendly",
              "Static private loses over 10% on the shared-friendly apps "
              "(HM)", _hm("shared", "private_norm"), "<", 0.9, paper=0.82),
        Trend("adaptive_keeps_neutral",
              "Adaptive stays within 20% of shared on the neutral apps "
              "(HM > 0.8)", _hm("neutral"), ">", 0.8),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(category, benchmark, mode)``."""
    cfg = experiment_config()
    return {(category, abbr, mode): RunSpec.single(abbr, mode, cfg,
                                                   scale=scale)
            for category in CATEGORIES
            for abbr in CATEGORIES[category]
            for mode in MODES}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    for category, benchmarks in nested(results).items():
        norms = {m: [] for m in MODES}
        for abbr, by_mode in benchmarks.items():
            base = by_mode["shared"].ipc
            row = {"benchmark": abbr, "category": category}
            for m in MODES:
                row[f"{m}_norm"] = by_mode[m].ipc / base
                norms[m].append(by_mode[m].ipc / base)
            row["adaptive_time_in_private"] = (
                by_mode["adaptive"].time_in_private
                / by_mode["adaptive"].cycles)
            out.append(row)
        hm_row = {"benchmark": "HM", "category": category,
                  "adaptive_time_in_private": float("nan")}
        for m in MODES:
            hm_row[f"{m}_norm"] = harmonic_mean(norms[m])
        out.append(hm_row)
    return out
