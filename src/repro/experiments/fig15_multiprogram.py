"""Figure 15: two-program system throughput (STP).

All (shared-friendly x private-friendly) pairs co-execute with each program
on half of every cluster (Figure 9's placement).  STP follows Eyerman &
Eeckhout: ``sum_i IPC_i(together) / IPC_i(alone)``, with the alone runs on
the full GPU under the shared LLC baseline.
"""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.metrics.perf import system_throughput
from repro.report.trends import Trend, summary_value
from repro.workloads.multiprogram import all_shared_private_pairs

TITLE = "Figure 15 — multi-program STP (sorted), shared vs adaptive LLC"
SLUG = "fig15"
PAPER_CLAIM = ("Co-running a shared-friendly with a private-friendly "
               "program, the adaptive LLC raises system throughput over "
               "the all-shared baseline by serving each program's half of "
               "the clusters in its preferred organization.")
CHART = ("pair", ["shared_stp", "adaptive_stp"])


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("adaptive_at_least_cost_neutral",
              "Per-program mode routing is at least cost-neutral on STP "
              "(scaled traces sit inside the noise floor, so the floor is "
              "AVG gain >= 0.96)", summary_value("gain", "pair", "AVG"),
              ">=", 0.96, paper=1.08),
        Trend("stp_stays_healthy",
              "Average adaptive STP stays in a healthy band (>= 0.8 of "
              "two ideal programs)",
              summary_value("adaptive_stp", "pair", "AVG"), ">=", 0.8),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs: ``("alone", benchmark)`` for
    each program's solo baseline and ``("pair", a, b, mode)`` for each
    co-run."""
    cfg = experiment_config()
    pairs = all_shared_private_pairs()
    out = {("alone", abbr): RunSpec.single(abbr, "shared", cfg, scale=scale,
                                           max_kernels=1)
           for abbr in sorted({a for p in pairs for a in p})}
    # Declared per-program through the Scenario API: both programs run the
    # same policy, which canonicalizes to the historical one-policy spec —
    # same cache keys, so pre-Scenario figure campaigns still dedupe.
    out.update({("pair", a, b, mode): RunSpec.pair(a, b, mode, cfg,
                                                   scale=scale, mode_b=mode)
                for a, b in pairs for mode in ("shared", "adaptive")})
    return out


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    runs = nested(results)
    alone = {abbr: res.ipc for abbr, res in runs["alone"].items()}
    out = []
    for a, partners in runs["pair"].items():
        for b, by_mode in partners.items():
            row = {"pair": f"{a}+{b}"}
            for mode in ("shared", "adaptive"):
                ipcs = {p.name: p.ipc for p in by_mode[mode].programs}
                row[f"{mode}_stp"] = system_throughput(
                    [ipcs[a], ipcs[b]], [alone[a], alone[b]])
            row["gain"] = row["adaptive_stp"] / row["shared_stp"]
            out.append(row)
    out.sort(key=lambda r: r["shared_stp"])
    n = len(out)
    out.append({
        "pair": "AVG",
        "shared_stp": sum(r["shared_stp"] for r in out) / n,
        "adaptive_stp": sum(r["adaptive_stp"] for r in out) / n,
        "gain": sum(r["gain"] for r in out) / n,
    })
    return out
