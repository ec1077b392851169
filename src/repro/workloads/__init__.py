"""Synthetic GPU workloads reproducing the paper's benchmark suite (Table 2).

* :mod:`repro.workloads.catalog` — the 17-benchmark suite with per-category
  parameters (footprint, sharing, kernel count);
* :mod:`repro.workloads.patterns` / :mod:`repro.workloads.generator` —
  CRC32-seeded access-stream primitives and the trace generator
  (deterministic, which is what makes campaign caching sound);
* :mod:`repro.workloads.multiprogram` — two-program mixes for Figure 15;
* :mod:`repro.workloads.analysis` — trace characterization.
"""

from repro.workloads.trace import CTAStream, KernelTrace, Workload
from repro.workloads.patterns import (
    hot_region_stream,
    interleave,
    repeated_stream,
    sequential_sweep,
    streaming_window,
)
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.catalog import (
    BENCHMARKS,
    CATEGORIES,
    benchmark,
    benchmarks_in_category,
    build,
)
from repro.workloads.multiprogram import MultiProgramWorkload, make_mix

__all__ = [
    "CTAStream",
    "KernelTrace",
    "Workload",
    "hot_region_stream",
    "interleave",
    "repeated_stream",
    "sequential_sweep",
    "streaming_window",
    "WorkloadSpec",
    "generate_workload",
    "BENCHMARKS",
    "CATEGORIES",
    "benchmark",
    "benchmarks_in_category",
    "build",
    "MultiProgramWorkload",
    "make_mix",
]
