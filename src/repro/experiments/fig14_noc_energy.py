"""Figure 14: NoC energy of the adaptive LLC normalized to the shared LLC
for the private-cache-friendly and neutral workloads, with the
buffer/crossbar/links/other split, plus the total-system energy change."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, summary_value
from repro.workloads.catalog import CATEGORIES

TITLE = ("Figure 14 — NoC energy (adaptive / shared), private-friendly + "
         "neutral")
SLUG = "fig14"
PAPER_CLAIM = ("While private-capable workloads run, the adaptive LLC "
               "short-circuits cluster-to-remote-slice traffic and gates "
               "idle crossbar ports, cutting NoC energy without raising "
               "total system energy.")
CHART = ("benchmark", ["noc_norm", "system_norm"])


def _largest_switcher_saving(rows) -> float:
    """Largest NoC saving among the workloads that went private
    (noc_norm < 0.98); NaN, which clears no bar, when none did."""
    gains = [1 - r["noc_norm"] for r in rows
             if r["benchmark"] != "AVG" and r["noc_norm"] < 0.98]
    return max(gains, default=float("nan"))


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    noc = summary_value("noc_norm", "benchmark", "AVG")
    return [
        Trend("adaptive_cuts_noc_energy",
              "Average NoC energy under the adaptive LLC <= the shared "
              "LLC's (normalized AVG <= 1)", noc, "<=", 1.0),
        Trend("system_energy_not_worse",
              "Average total system energy stays within 5% of the shared "
              "baseline",
              summary_value("system_norm", "benchmark", "AVG"), "<=", 1.05,
              paper=0.94),
        Trend("noc_energy_saving_size",
              "Average NoC energy drops over 5% under the adaptive LLC",
              noc, "<", 0.95, paper=0.734),
        Trend("switchers_save_noc_energy",
              "The workloads that go private save over 15% NoC energy at "
              "best (largest saving among noc_norm < 0.98)",
              _largest_switcher_saving, ">", 0.15),
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
