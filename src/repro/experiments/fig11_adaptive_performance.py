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


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""

    def beats_statics(rows):
        bench = [r for r in rows if r["benchmark"] != "HM"]
        adaptive = geomean_speedup([r["adaptive_norm"] for r in bench])
        static = max(geomean_speedup([r["shared_norm"] for r in bench]),
                     geomean_speedup([r["private_norm"] for r in bench]))
        return (adaptive >= static - 0.02,
                f"geomean: adaptive {adaptive:.3f} vs best static "
                f"{static:.3f}")

    def keeps_shared_friendly(rows):
        hm = category_row(rows, "HM", "shared")["adaptive_norm"]
        return (hm >= 0.95,
                f"adaptive HM on shared-friendly apps = {hm:.3f} "
                f"(want >= 0.95)")

    def adaptive_gain_size(rows):
        hm = category_row(rows, "HM", "private")["adaptive_norm"]
        return (hm > 1.05,
                f"adaptive HM on private-friendly apps = {hm:.3f} "
                f"(want > 1.05)")

    def static_private_loses(rows):
        hm = category_row(rows, "HM", "shared")["private_norm"]
        return (hm < 0.9,
                f"static private HM on shared-friendly apps = {hm:.3f} "
                f"(want < 0.9)")

    def neutral_holds(rows):
        hm = category_row(rows, "HM", "neutral")["adaptive_norm"]
        return (hm > 0.8,
                f"adaptive HM on neutral apps = {hm:.3f} (want > 0.8)")

    return [
        Trend("adaptive_geq_best_static",
              "Adaptive geomean normalized IPC >= max(static shared, "
              "static private) geomean", beats_statics),
        Trend("adaptive_keeps_shared_friendly",
              "Adaptive does not give up the shared-friendly apps the way "
              "static private does (HM >= 0.95)", keeps_shared_friendly),
        Trend("adaptive_gains_on_private_friendly",
              "Adaptive gains over 5% on the private-friendly apps "
              "(paper: +28% HM)", adaptive_gain_size),
        Trend("static_private_loses_shared_friendly",
              "Static private loses over 10% on the shared-friendly apps "
              "(paper: -18% HM)", static_private_loses),
        Trend("adaptive_keeps_neutral",
              "Adaptive stays within 20% of shared on the neutral apps "
              "(HM > 0.8)", neutral_holds),
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
