#!/usr/bin/env python3
"""Explore the GPU crossbar design space (paper Section 3).

Builds the full, concentrated, and hierarchical crossbars at equal bisection
bandwidth, runs a DNN workload through each, and reports performance next to
the DSENT-like area/power estimates — reproducing the trade-off that makes
H-Xbar the paper's baseline.

Run:  python examples/noc_design_space.py
"""

from repro.config import NoCConfig
from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import experiment_config
from repro.noc.power import NoCPowerModel
from repro.noc.topology import make_topology

DESIGNS = [
    ("Full Xbar @32B",  "full", 32, 2),
    ("H-Xbar  @32B",    "hxbar", 32, 2),
    ("C-Xbar c2 @32B",  "cxbar", 32, 2),
    ("H-Xbar  @16B",    "hxbar", 16, 2),
    ("C-Xbar c4 @32B",  "cxbar", 32, 4),
    ("H-Xbar   @8B",    "hxbar", 8, 2),
]


def main() -> None:
    model = NoCPowerModel()
    base_ipc = base_power = None
    print(f"{'design':16s} {'IPC':>7s} {'norm':>6s} {'area mm2':>9s} "
          f"{'xbar':>6s} {'buf':>6s} {'links':>6s} {'NoC W':>7s}")
    for name, topo, channel, conc in DESIGNS:
        cfg = experiment_config(noc=NoCConfig(topology=topo,
                                              channel_bytes=channel,
                                              concentration=conc))
        res = execute_spec(RunSpec.single("RN", "shared", cfg, scale=0.5,
                                          with_energy=True))
        area = model.area(make_topology(cfg).inventory())
        watts = (res.energy.noc_total * 1e-12
                 / (res.cycles / 1.4e9))
        if base_ipc is None:
            base_ipc, base_power = res.ipc, watts
        print(f"{name:16s} {res.ipc:7.2f} {res.ipc / base_ipc:6.3f} "
              f"{area.total:9.2f} {area.crossbar:6.2f} {area.buffer:6.2f} "
              f"{area.links:6.2f} {watts:7.2f}")

    print("\nH-Xbar delivers full-crossbar-class performance at a fraction "
          "of the area and power — and its second stage can be power-gated "
          "when the adaptive LLC goes private.")


if __name__ == "__main__":
    main()
