"""Figure 7: NoC design-space exploration.

Compares the full crossbar, concentrated crossbar (C-Xbar) and hierarchical
crossbar (H-Xbar) at equal bisection bandwidth on (a) normalized IPC,
(b) active silicon area with its buffer/crossbar/links/other split, and
(c) normalized NoC power.  Pairings follow Section 3.4: full@32B ≡ H@32B
(BW); C-Xbar(c)@32B ≡ H@(32/c)B for c ∈ {2, 4, 8}.
"""

from __future__ import annotations

from repro.config import NoCConfig
from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.noc.power import NoCPowerModel
from repro.noc.topology import make_topology
from repro.report.trends import Trend
from repro.sim.stats import harmonic_mean

TITLE = "Figure 7 — NoC design space (normalized to the full crossbar)"
SLUG = "fig07"
PAPER_CLAIM = ("At equal bisection bandwidth the hierarchical crossbar "
               "matches the full crossbar's performance in far less "
               "silicon, and narrowing its channels trades a little IPC "
               "for large power savings.")
CHART = ("design", ["norm_ipc", "norm_power"])


def _design(rows: list[dict], bandwidth: str, design: str) -> dict:
    for row in rows:
        if row["bandwidth"] == bandwidth and row["design"] == design:
            return row
    raise KeyError(f"no row for {design!r} at {bandwidth!r}")


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""

    def less_area(rows):
        full = _design(rows, "BW", "Full Xbar")["area_mm2"]
        hx = _design(rows, "BW", "H-Xbar")["area_mm2"]
        reduction = 1 - hx / full
        return (reduction >= 0.55,
                f"area reduction vs full crossbar = {reduction:.0%} "
                f"(paper: 62-79%)")

    def area_reduction_bounded(rows):
        full = _design(rows, "BW", "Full Xbar")["area_mm2"]
        hx = _design(rows, "BW", "H-Xbar")["area_mm2"]
        reduction = 1 - hx / full
        return (reduction <= 0.85,
                f"area reduction vs full crossbar = {reduction:.0%} "
                f"(want <= 85%)")

    def smaller_than_cxbar(rows):
        areas = [(bw, _design(rows, bw, "H-Xbar")["area_mm2"],
                  _design(rows, bw, f"C-Xbar c{c}")["area_mm2"])
                 for bw, c in (("BW/2", 2), ("BW/4", 4))]
        return (all(hx < cx for _, hx, cx in areas),
                ", ".join(f"{bw}: H-Xbar {hx:.2f} vs C-Xbar {cx:.2f} mm2"
                          for bw, hx, cx in areas))

    def equal_bw_ipc(rows):
        # The model charges store-and-forward serialization per stage, so
        # the two-stage H-Xbar trails the single-stage full crossbar by
        # 10-17% even at paper scale (wormhole overlap would close it).
        ipc = _design(rows, "BW", "H-Xbar")["norm_ipc"]
        return ipc >= 0.80, f"H-Xbar@BW normalized IPC = {ipc:.3f}"

    def narrower_saves_power(rows):
        wide = _design(rows, "BW", "H-Xbar")["norm_power"]
        narrow = _design(rows, "BW/8", "H-Xbar")["norm_power"]
        return (narrow <= wide,
                f"H-Xbar power: {narrow:.3f} @BW/8 vs {wide:.3f} @BW")

    return [
        Trend("hxbar_matches_full_in_less_area",
              "Equal-bandwidth H-Xbar cuts active silicon by at least 55% "
              "vs the full crossbar (paper: 62-79%)", less_area),
        Trend("hxbar_area_reduction_plausible",
              "Equal-bandwidth H-Xbar's area reduction vs the full "
              "crossbar stays at most 85% (paper: 62-79%)",
              area_reduction_bounded),
        Trend("hxbar_smaller_than_cxbar",
              "H-Xbar needs less silicon than the C-Xbar of the same "
              "bisection bandwidth at BW/2 and BW/4", smaller_than_cxbar),
        Trend("hxbar_keeps_ipc",
              "Equal-bandwidth H-Xbar stays within 20% of full-crossbar "
              "IPC (store-and-forward stage cost; see module docstring)",
              equal_bw_ipc),
        Trend("narrow_channels_save_power",
              "Narrowing H-Xbar channels (BW/8) does not raise NoC power "
              "over the BW design", narrower_saves_power),
    ]

#: (bandwidth label, design name) -> (topology, channel_bytes,
#: concentration), in presentation order; the first design is the baseline.
DESIGNS = {
    ("BW", "Full Xbar"): ("full", 32, 2),
    ("BW", "H-Xbar"): ("hxbar", 32, 2),
    ("BW/2", "C-Xbar c2"): ("cxbar", 32, 2),
    ("BW/2", "H-Xbar"): ("hxbar", 16, 2),
    ("BW/4", "C-Xbar c4"): ("cxbar", 32, 4),
    ("BW/4", "H-Xbar"): ("hxbar", 8, 2),
    ("BW/8", "C-Xbar c8"): ("cxbar", 32, 8),
    ("BW/8", "H-Xbar"): ("hxbar", 4, 2),
}

#: One representative workload per category drives the timing comparison.
WORKLOADS = ["RN", "GEMM", "BS"]


def _cfg_for(topology: str, channel: int, concentration: int):
    return experiment_config(noc=NoCConfig(topology=topology,
                                           channel_bytes=channel,
                                           concentration=concentration))


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(bandwidth, design, benchmark)``."""
    return {(bandwidth, name, abbr): RunSpec.single(
                abbr, "shared", _cfg_for(*design), scale=scale,
                with_energy=True)
            for (bandwidth, name), design in DESIGNS.items()
            for abbr in WORKLOADS}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    model = NoCPowerModel()
    out = []
    baseline_ipc: dict[str, float] = {}
    baseline_power = 0.0
    for bandwidth, designs in nested(results).items():
        for name, benchmarks in designs.items():
            ipcs = {}
            energy_pj = 0.0
            cycles = 0.0
            for abbr, res in benchmarks.items():
                ipcs[abbr] = res.ipc
                energy_pj += res.energy.noc_total
                cycles += res.cycles
            cfg = _cfg_for(*DESIGNS[bandwidth, name])
            area = model.area(make_topology(cfg).inventory())
            power = energy_pj / max(cycles, 1e-9)
            if not out:  # the first design is the baseline
                baseline_ipc, baseline_power = ipcs, power
            norm_ipc = harmonic_mean([i / baseline_ipc[w]
                                      for w, i in ipcs.items()])
            out.append({
                "bandwidth": bandwidth,
                "design": name,
                "norm_ipc": norm_ipc,
                "area_mm2": area.total,
                "area_buffer": area.buffer,
                "area_crossbar": area.crossbar,
                "area_links": area.links,
                "area_other": area.other,
                "norm_power": power / baseline_power,
            })
    return out
