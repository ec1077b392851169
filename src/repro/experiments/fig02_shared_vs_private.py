"""Figure 2: normalized performance of a private vs shared LLC, per
benchmark category, with the paper's harmonic-mean (HM) summary bars."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, category_row
from repro.sim.stats import harmonic_mean
from repro.workloads.catalog import CATEGORIES

TITLE = "Figure 2 — normalized performance, private LLC vs shared LLC"
SLUG = "fig02"
PAPER_CLAIM = ("Private-cache-friendly workloads speed up under a private "
               "LLC while shared-cache-friendly (high inter-cluster "
               "locality) workloads slow down — neither static "
               "organization wins everywhere.")
#: (label_key, value_keys) for the rendered chart.
CHART = ("benchmark", ["private_norm"])


def _hm(category: str):
    """Measure: the category's HM private/shared normalized IPC."""
    return lambda rows: category_row(rows, "HM", category)["private_norm"]


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("private_friendly_speedup",
              "Private LLC speeds up the private-cache-friendly category "
              "(HM normalized IPC >= 1)", _hm("private"), ">=", 1.0),
        Trend("shared_friendly_slowdown",
              "Private LLC slows down the shared-cache-friendly category "
              "(HM normalized IPC <= 1)", _hm("shared"), "<=", 1.0),
        Trend("private_friendly_gain_size",
              "Private-friendly apps gain over 15% under a private LLC",
              _hm("private"), ">", 1.15, paper=1.28),
        Trend("shared_friendly_loss_size",
              "Shared-friendly apps lose over 10% under a private LLC",
              _hm("shared"), "<", 0.9, paper=0.82),
        Trend("neutral_stays_flat_floor",
              "Neutral apps stay near the shared baseline under a private "
              "LLC (HM > 0.8)", _hm("neutral"), ">", 0.8),
        Trend("neutral_stays_flat_ceiling",
              "Neutral apps stay near the shared baseline under a private "
              "LLC (HM <= 1.1)", _hm("neutral"), "<=", 1.1),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(category, benchmark, mode)``."""
    cfg = experiment_config()
    return {(category, abbr, mode): RunSpec.single(abbr, mode, cfg,
                                                   scale=scale)
            for category in CATEGORIES
            for abbr in CATEGORIES[category]
            for mode in ("shared", "private")}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    """Rows: benchmark, category, shared/private IPC, normalized private."""
    out = []
    for category, benchmarks in nested(results).items():
        speedups = []
        for abbr, by_mode in benchmarks.items():
            shared, private = by_mode["shared"], by_mode["private"]
            norm = private.ipc / shared.ipc
            speedups.append(norm)
            out.append({
                "benchmark": abbr,
                "category": category,
                "shared_ipc": shared.ipc,
                "private_ipc": private.ipc,
                "private_norm": norm,
            })
        out.append({
            "benchmark": "HM",
            "category": category,
            "shared_ipc": float("nan"),
            "private_ipc": float("nan"),
            "private_norm": harmonic_mean(speedups),
        })
    return out
