#!/usr/bin/env python3
"""Sensitivity sweep: when does adaptive caching help most? (Figure 16)

Sweeps NoC channel width and address mapping for one private-cache-friendly
workload and prints the adaptive-over-shared speedup at each point.  The
paper's trends: gains grow when the NoC is narrower (bandwidth-starved) and
when the address mapping is imbalanced (Hynix), because both make the
replicated-line bandwidth of the private LLC more valuable.

Run:  python examples/sensitivity_sweep.py
"""

from repro.config import NoCConfig
from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import experiment_config


def gain(cfg, abbr="AN", scale=0.5) -> float:
    shared = execute_spec(RunSpec.single(abbr, "shared", cfg, scale=scale))
    adaptive = execute_spec(RunSpec.single(abbr, "adaptive", cfg,
                                           scale=scale))
    return adaptive.ipc / shared.ipc


def main() -> None:
    print("channel width sweep (PAE mapping):")
    for width in (64, 32, 16):
        cfg = experiment_config(noc=NoCConfig(channel_bytes=width))
        print(f"  {width:3d}B channel: adaptive/shared = {gain(cfg):.3f}")

    print("\naddress mapping sweep (32B channel):")
    for mapping in ("pae", "hynix"):
        cfg = experiment_config(address_mapping=mapping)
        print(f"  {mapping:5s}: adaptive/shared = {gain(cfg):.3f}")


if __name__ == "__main__":
    main()
