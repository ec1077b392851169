"""Figure 16: sensitivity of the adaptive LLC's gain to address mapping,
NoC channel width, SM count, L1 size, and CTA scheduling policy.

Each sensitivity point reruns the private-cache-friendly set under the
shared baseline and the adaptive LLC with one parameter changed, and
reports the harmonic-mean normalized IPC (adaptive / shared) — the paper's
bar pairs.
"""

from __future__ import annotations

from repro.config import GPUConfig, NoCConfig
from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.metrics.perf import geomean_speedup
from repro.report.trends import Trend
from repro.sim.stats import harmonic_mean
from repro.workloads.catalog import CATEGORIES

WORKLOADS = CATEGORIES["private"]

TITLE = "Figure 16 — sensitivity of adaptive/shared HM speedup"
SLUG = "fig16"
PAPER_CLAIM = ("The adaptive LLC's gain over the shared baseline survives "
               "changes to address mapping, NoC channel width, SM count, "
               "L1 size, and CTA scheduling policy.")
CHART = ("point", ["adaptive_over_shared"])


def _points(rows) -> list[float]:
    return [r["adaptive_over_shared"] for r in rows]


def _weakest_group_best(rows) -> float:
    """The smallest, over sensitivity groups, of each group's best
    adaptive/shared point."""
    best: dict[str, float] = {}
    for r in rows:
        best[r["group"]] = max(best.get(r["group"], float("-inf")),
                               r["adaptive_over_shared"])
    return min(best.values())


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("gain_survives_sweep",
              "Geomean adaptive/shared speedup over every sensitivity "
              "point >= 1", lambda rows: geomean_speedup(_points(rows)),
              ">=", 1.0),
        Trend("no_point_collapses",
              "Adaptive never loses badly to shared at any design point "
              "(every point >= 0.90)",
              lambda rows: min(_points(rows)), ">=", 0.90),
        Trend("every_group_shows_a_win",
              "Every sensitivity group has a design point where adaptive "
              "beats shared by over 2%", _weakest_group_best, ">", 1.02),
    ]


def sweep_configs() -> list[tuple[str, str, GPUConfig]]:
    """The sensitivity sweep, declared as ``(group, label, config)`` points."""
    points: list[tuple[str, str, GPUConfig]] = []
    for label, mapping in [("PAE", "pae"), ("Hynix", "hynix")]:
        points.append(("address_mapping", label,
                       experiment_config(address_mapping=mapping)))
    for width in (64, 32, 16):
        points.append(("channel_width", f"{width}B",
                       experiment_config(noc=NoCConfig(channel_bytes=width))))
    for sms in (40, 80, 160):
        clusters = sms // 10  # keep 10 SMs per cluster, as in the paper
        points.append(("sm_count", f"{sms} SMs",
                       experiment_config(num_sms=sms,
                                         num_clusters=clusters,
                                         llc_slices_per_mc=clusters)))
    for kb in (48, 64, 96, 128):
        points.append(("l1_size", f"{kb}KB",
                       experiment_config(l1_size_kb=kb)))
    for label, policy in [("RR", "two_level_rr"), ("BCS", "bcs"),
                          ("DCS", "dcs")]:
        points.append(("cta_scheduler", label,
                       experiment_config(cta_scheduler=policy)))
    return points


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(group, point, benchmark, mode)``."""
    return {(group, label, abbr, mode): RunSpec.single(abbr, mode, cfg,
                                                       scale=scale)
            for group, label, cfg in sweep_configs()
            for abbr in WORKLOADS
            for mode in ("shared", "adaptive")}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    for group, points in nested(results).items():
        for label, benchmarks in points.items():
            gains = [by_mode["adaptive"].ipc / by_mode["shared"].ipc
                     for by_mode in benchmarks.values()]
            out.append({"group": group, "point": label,
                        "adaptive_over_shared": harmonic_mean(gains)})
    return out
