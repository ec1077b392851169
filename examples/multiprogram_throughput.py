#!/usr/bin/env python3
"""Multi-program co-execution with per-application LLC modes (Figure 9/15).

Co-schedules a shared-cache-friendly app (GEMM) with a private-cache-
friendly app (AlexNet): each gets half of every cluster.  Under the
adaptive LLC the two applications end up viewing the *same* physical LLC
differently — GEMM keeps address-indexed shared slices while AlexNet's
requests go to its cluster's private slice — and system throughput (STP)
improves over the all-shared baseline.

Run:  python examples/multiprogram_throughput.py
"""

from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import experiment_config
from repro.metrics.perf import system_throughput


def main() -> None:
    cfg = experiment_config()
    pair = ("GEMM", "AN")

    alone = {abbr: execute_spec(RunSpec.single(abbr, "shared", cfg, scale=0.5,
                                               max_kernels=1)).ipc
             for abbr in pair}
    print("single-program IPC (shared LLC, full GPU):",
          {k: round(v, 2) for k, v in alone.items()})

    for mode in ("shared", "adaptive"):
        res = execute_spec(RunSpec.pair(*pair, mode, cfg, scale=0.5))
        ipcs = {p.name: p.ipc for p in res.programs}
        stp = system_throughput([ipcs[a] for a in pair],
                                [alone[a] for a in pair])
        detail = ", ".join(f"{a}: {ipcs[a]:.2f}" for a in pair)
        print(f"{mode:9s} LLC: per-program IPC {{{detail}}}  STP={stp:.3f}")


if __name__ == "__main__":
    main()
