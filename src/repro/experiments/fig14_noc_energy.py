"""Figure 14: NoC energy of the adaptive LLC normalized to the shared LLC
for the private-cache-friendly and neutral workloads, with the
buffer/crossbar/links/other split, plus the total-system energy change."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, summary_row, value_at_most
from repro.workloads.catalog import CATEGORIES

TITLE = ("Figure 14 — NoC energy (adaptive / shared), private-friendly + "
         "neutral")
SLUG = "fig14"
PAPER_CLAIM = ("While private-capable workloads run, the adaptive LLC "
               "short-circuits cluster-to-remote-slice traffic and gates "
               "idle crossbar ports, cutting NoC energy without raising "
               "total system energy.")
CHART = ("benchmark", ["noc_norm", "system_norm"])


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""

    def saving_size(rows):
        value = summary_row(rows, "benchmark", "AVG")["noc_norm"]
        return value < 0.95, f"noc_norm @ AVG = {value:.3f} (want < 0.95)"

    def switchers_save(rows):
        # Only workloads that actually went private save NoC energy.
        gains = [1 - r["noc_norm"] for r in rows
                 if r["benchmark"] != "AVG" and r["noc_norm"] < 0.98]
        if not gains:
            return False, "no workload reaches noc_norm < 0.98"
        return (max(gains) > 0.15,
                f"largest NoC saving = {max(gains):.3f} (want > 0.15)")

    return [
        Trend("adaptive_cuts_noc_energy",
              "Average NoC energy under the adaptive LLC <= the shared "
              "LLC's (normalized AVG <= 1)",
              value_at_most("noc_norm", 1.0, "benchmark", "AVG")),
        Trend("system_energy_not_worse",
              "Average total system energy stays within 5% of the shared "
              "baseline (paper: 6% savings at full scale)",
              value_at_most("system_norm", 1.05, "benchmark", "AVG")),
        Trend("noc_energy_saving_size",
              "Average NoC energy drops over 5% under the adaptive LLC "
              "(paper: -26.6%)", saving_size),
        Trend("switchers_save_noc_energy",
              "The workloads that go private save over 15% NoC energy at "
              "best (largest saving among noc_norm < 0.98)", switchers_save),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(category, benchmark, mode)``."""
    cfg = experiment_config()
    return {(category, abbr, mode): RunSpec.single(abbr, mode, cfg,
                                                   scale=scale,
                                                   with_energy=True)
            for category in ("private", "neutral")
            for abbr in CATEGORIES[category]
            for mode in ("shared", "adaptive")}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    noc_savings = []
    system_savings = []
    for category, benchmarks in nested(results).items():
        for abbr, by_mode in benchmarks.items():
            shared, adaptive = by_mode["shared"], by_mode["adaptive"]
            base = shared.energy.noc_total
            adp = adaptive.energy.noc
            noc_norm = adp.total / base
            system_norm = adaptive.energy.total / shared.energy.total
            noc_savings.append(1 - noc_norm)
            system_savings.append(1 - system_norm)
            out.append({
                "benchmark": abbr,
                "category": category,
                "noc_norm": noc_norm,
                "buffer": adp.buffer / base,
                "crossbar": adp.crossbar / base,
                "links": adp.links / base,
                "other": adp.other / base,
                "system_norm": system_norm,
            })
    n = len(out)
    out.append({
        "benchmark": "AVG", "category": "-",
        "noc_norm": 1 - sum(noc_savings) / n,
        "buffer": float("nan"), "crossbar": float("nan"),
        "links": float("nan"), "other": float("nan"),
        "system_norm": 1 - sum(system_savings) / n,
    })
    return out
