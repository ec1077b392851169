"""Figure 16: sensitivity of the adaptive LLC's gain to address mapping,
NoC channel width, SM count, L1 size, and CTA scheduling policy.

Each sensitivity point reruns the private-cache-friendly set under the
shared baseline and the adaptive LLC with one parameter changed, and
reports the harmonic-mean normalized IPC (adaptive / shared) — the paper's
bar pairs.
"""

from __future__ import annotations

from repro.config import GPUConfig, NoCConfig
from repro.experiments.campaign import Campaign, RunSpec
from repro.experiments.runner import experiment_config, print_rows
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


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``run()`` rows."""

    def gain_survives(rows):
        gm = geomean_speedup([r["adaptive_over_shared"] for r in rows])
        return gm >= 1.0, f"geomean over sensitivity points = {gm:.3f}"

    def no_point_collapses(rows):
        worst = min(rows, key=lambda r: r["adaptive_over_shared"])
        value = worst["adaptive_over_shared"]
        return (value >= 0.90,
                f"worst point {worst['group']}/{worst['point']} = "
                f"{value:.3f} (want >= 0.90)")

    def every_group_wins_somewhere(rows):
        best: dict[str, float] = {}
        for r in rows:
            best[r["group"]] = max(best.get(r["group"], float("-inf")),
                                   r["adaptive_over_shared"])
        weakest = min(best, key=best.__getitem__)
        return (best[weakest] > 1.02,
                f"weakest group {weakest}: best point "
                f"{best[weakest]:.3f} (want > 1.02)")

    return [
        Trend("gain_survives_sweep",
              "Geomean adaptive/shared speedup over every sensitivity "
              "point >= 1", gain_survives),
        Trend("no_point_collapses",
              "Adaptive never loses badly to shared at any design point "
              "(every point >= 0.90)", no_point_collapses),
        Trend("every_group_shows_a_win",
              "Every sensitivity group has a design point where adaptive "
              "beats shared by over 2%", every_group_wins_somewhere),
    ]


def sweep_configs(groups: list[str] | None = None
                  ) -> list[tuple[str, str, GPUConfig]]:
    """The sensitivity sweep, declared as ``(group, label, config)`` points."""
    points: list[tuple[str, str, GPUConfig]] = []

    def want(group: str) -> bool:
        return groups is None or group in groups

    if want("address_mapping"):
        for label, mapping in [("PAE", "pae"), ("Hynix", "hynix")]:
            points.append(("address_mapping", label,
                           experiment_config(address_mapping=mapping)))
    if want("channel_width"):
        for width in (64, 32, 16):
            points.append(("channel_width", f"{width}B",
                           experiment_config(noc=NoCConfig(channel_bytes=width))))
    if want("sm_count"):
        for sms in (40, 80, 160):
            clusters = sms // 10  # keep 10 SMs per cluster, as in the paper
            points.append(("sm_count", f"{sms} SMs",
                           experiment_config(num_sms=sms,
                                             num_clusters=clusters,
                                             llc_slices_per_mc=clusters)))
    if want("l1_size"):
        for kb in (48, 64, 96, 128):
            points.append(("l1_size", f"{kb}KB",
                           experiment_config(l1_size_kb=kb)))
    if want("cta_scheduler"):
        for label, policy in [("RR", "two_level_rr"), ("BCS", "bcs"),
                              ("DCS", "dcs")]:
            points.append(("cta_scheduler", label,
                           experiment_config(cta_scheduler=policy)))
    return points


def specs(scale: float = 1.0, workloads: list[str] | None = None,
          groups: list[str] | None = None) -> list[RunSpec]:
    workloads = workloads or WORKLOADS
    return [RunSpec.single(abbr, mode, cfg, scale=scale)
            for _, _, cfg in sweep_configs(groups)
            for abbr in workloads
            for mode in ("shared", "adaptive")]


def sensitivity_points(scale: float = 1.0,
                       workloads: list[str] | None = None,
                       groups: list[str] | None = None,
                       campaign: Campaign | None = None) -> list[dict]:
    workloads = workloads or WORKLOADS
    campaign = campaign or Campaign()
    campaign.prefetch(specs(scale, workloads, groups))
    rows = []
    for group, label, cfg in sweep_configs(groups):
        gains = []
        for abbr in workloads:
            shared = campaign.result(
                RunSpec.single(abbr, "shared", cfg, scale=scale))
            adaptive = campaign.result(
                RunSpec.single(abbr, "adaptive", cfg, scale=scale))
            gains.append(adaptive.ipc / shared.ipc)
        rows.append({"group": group, "point": label,
                     "adaptive_over_shared": harmonic_mean(gains)})
    return rows


def run(scale: float = 1.0, workloads: list[str] | None = None,
        groups: list[str] | None = None,
        campaign: Campaign | None = None) -> list[dict]:
    return sensitivity_points(scale, workloads, groups, campaign)


def main(scale: float = 1.0, campaign: Campaign | None = None) -> list[dict]:
    rows = run(scale, campaign=campaign)
    print(TITLE)
    print_rows(rows)
    return rows


if __name__ == "__main__":
    main()
