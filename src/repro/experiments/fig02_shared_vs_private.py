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


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""

    def private_wins(rows):
        hm = category_row(rows, "HM", "private")["private_norm"]
        return hm >= 1.0, f"HM(private category) = {hm:.3f} (want >= 1)"

    def shared_wins(rows):
        hm = category_row(rows, "HM", "shared")["private_norm"]
        return hm <= 1.0, f"HM(shared category) = {hm:.3f} (want <= 1)"

    def private_gain_size(rows):
        hm = category_row(rows, "HM", "private")["private_norm"]
        return hm > 1.15, f"HM(private category) = {hm:.3f} (want > 1.15)"

    def shared_loss_size(rows):
        hm = category_row(rows, "HM", "shared")["private_norm"]
        return hm < 0.9, f"HM(shared category) = {hm:.3f} (want < 0.9)"

    def neutral_flat(rows):
        hm = category_row(rows, "HM", "neutral")["private_norm"]
        return (0.8 < hm <= 1.1,
                f"HM(neutral category) = {hm:.3f} (want in (0.8, 1.1])")

    return [
        Trend("private_friendly_speedup",
              "Private LLC speeds up the private-cache-friendly category "
              "(HM normalized IPC >= 1)", private_wins),
        Trend("shared_friendly_slowdown",
              "Private LLC slows down the shared-cache-friendly category "
              "(HM normalized IPC <= 1)", shared_wins),
        Trend("private_friendly_gain_size",
              "Private-friendly apps gain over 15% under a private LLC "
              "(paper: +28% HM)", private_gain_size),
        Trend("shared_friendly_loss_size",
              "Shared-friendly apps lose over 10% under a private LLC "
              "(paper: -18% HM)", shared_loss_size),
        Trend("neutral_stays_flat",
              "Neutral apps stay near the shared baseline under a private "
              "LLC (HM in (0.8, 1.1])", neutral_flat),
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
