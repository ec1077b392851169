"""Workload generator: turns a :class:`WorkloadSpec` into a trace.

Each paper benchmark is described by a spec whose fields encode the
characteristics Table 2 and Figures 2/3 report: shared-data footprint,
kernel count, category, and the access-stream structure that *causes* the
category:

* **private-cache-friendly** — every CTA sweeps the same read-only shared
  region in the same order (DNN weights).  At any instant all SMs contend
  for the same few lines, serializing on one LLC slice under shared caching;
  replication under private caching multiplies the bandwidth.
* **shared-cache-friendly** — CTAs work in a multi-MB window that fits the
  aggregate shared LLC but not one cluster's worth of private slices, so
  private caching inflates the miss rate.
* **neutral** — CTA-private streaming with negligible shared data; the LLC
  organization is irrelevant.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.workloads.patterns import (
    hot_region_stream,
    interleave,
    repeated_stream,
    sequential_sweep,
    streaming_window,
)
from repro.workloads.trace import CTAStream, KernelTrace, Workload

LINE_BYTES = 128
LINES_PER_MB = 1024 * 1024 // LINE_BYTES


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one benchmark."""

    name: str
    abbr: str
    category: str               # "shared" | "private" | "neutral"
    shared_mb: float            # Table 2 shared-data footprint
    num_kernels: int            # Table 2 kernel count
    shared_frac: float = 0.7    # fraction of accesses hitting shared data
    hot_mb: float = 0.0         # private-friendly: lockstep-swept subset
    window_mb: float = 0.0      # shared-friendly: working-window size
    reuse: int = 6              # window revisit factor
    write_frac: float = 0.1     # write fraction of CTA-private accesses
    instrs_per_access: float = 4.0
    private_kb_per_cta: float = 96.0
    l1_repeats: int = 3         # consecutive touches per private line
    warps_per_cta: int = 8      # warp streams per CTA on an SM
    barrier_interval: int = 16  # accesses/warp between CTA barriers (0=none)
    hot_repeat: int = 2         # warps concurrently reading each hot line
    l1_bypass_shared: bool = False  # shared loads marked ld.cg (skip L1)
    min_sweeps: int = 3         # guaranteed full passes over the swept region
    uses_atomics: bool = False

    def __post_init__(self) -> None:
        if self.category not in ("shared", "private", "neutral"):
            raise ValueError(f"unknown category {self.category!r}")
        if not 0.0 <= self.shared_frac <= 1.0:
            raise ValueError("shared_frac must be a probability")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ValueError("write_frac must be a probability")
        if self.num_kernels <= 0:
            raise ValueError("num_kernels must be positive")

    @property
    def shared_lines(self) -> int:
        return max(1, int(self.shared_mb * LINES_PER_MB))

    @property
    def hot_lines(self) -> int:
        return max(1, int(self.hot_mb * LINES_PER_MB)) if self.hot_mb else 0

    @property
    def window_lines(self) -> int:
        return max(1, int(self.window_mb * LINES_PER_MB)) if self.window_mb else 0

    @property
    def seed(self) -> int:
        """Stable per-benchmark seed derived from the name."""
        return zlib.crc32(self.name.encode())


def _shared_stream(spec: WorkloadSpec, rng: random.Random, count: int,
                   base: int) -> list[int]:
    """Shared-region access stream according to the spec's category."""
    if count <= 0:
        return []
    if spec.category == "private":
        # Lockstep weight-reading: ``hot_repeat`` warps of every CTA read
        # each line together (after the per-SM warp split), so a handful of
        # lines is in flight machine-wide and every SM serializes on the
        # same LLC slice under shared caching — the contention signature.
        # The swept region is capped so the access budget completes at least
        # ``min_sweeps`` full passes (scaled runs sweep a proportionally
        # smaller slice of the real weight footprint).
        hot = spec.hot_lines or spec.shared_lines
        cold = max(1, count // 20)
        rep = max(1, spec.hot_repeat)
        budget_lines = max(1, (count - cold) // rep)
        region = min(hot, max(32, budget_lines // max(1, spec.min_sweeps)))
        sweep = sequential_sweep(-(-budget_lines // 1), base, region, phase=0)
        lockstep = [line for line in sweep for _ in range(rep)][:count - cold]
        # A slice of cold traffic over the full footprint keeps the whole
        # Table 2 footprint visible to the LLC (and prices private-mode
        # replication of the big read-only structure).
        cold_stream = hot_region_stream(rng, cold, base, spec.shared_lines)
        return interleave(rng, lockstep, cold_stream, 19.0, 1.0)
    if spec.category == "shared":
        window = spec.window_lines or max(1, spec.shared_lines // 8)
        return streaming_window(rng, count, base, spec.shared_lines,
                                window, reuse=spec.reuse)
    # Neutral: rare touches to a tiny shared region.
    return hot_region_stream(rng, count, base, spec.shared_lines)


def _private_stream(spec: WorkloadSpec, rng: random.Random, count: int,
                    base: int) -> list[int]:
    if count <= 0:
        return []
    region = max(1, int(spec.private_kb_per_cta * 1024 / LINE_BYTES))
    return repeated_stream(rng, count, base, region, repeats=spec.l1_repeats)


def _mark_output_writes(spec: WorkloadSpec, rng: random.Random,
                        keys: list[int], private_lines: set[int]) -> list[bool]:
    """Choose output lines among the CTA-private data and mark their *last*
    touch as the write (read-modify-read-...-write, the GPU output pattern).

    Shared data stays read-only (the paper's workload property).  Writing a
    line once keeps write-through (private LLC) and write-back (shared LLC)
    DRAM write volumes comparable, as in real hardware where each output
    line reaches DRAM once either way.
    """
    write_prob = min(1.0, spec.write_frac * max(1, spec.l1_repeats))
    # A repeated key keeps its first-touch position in the dict's order
    # and takes its last index: one draw per touched line, in first-touch
    # order.
    last_touch = {key: i for i, key in enumerate(keys)
                  if key in private_lines}
    draw = rng.random
    writes = [False] * len(keys)
    for idx in last_touch.values():
        if draw() < write_prob:
            writes[idx] = True
    return writes


def generate_workload(spec: WorkloadSpec, num_ctas: int = 160,
                      total_accesses: int = 40_000,
                      max_kernels: int | None = 6,
                      address_offset: int = 0) -> Workload:
    """Materialize a trace.

    ``total_accesses`` is the whole-workload budget, split evenly over
    kernels and CTAs; ``max_kernels`` caps long kernel sequences (3DC has 48)
    so scaled runs stay tractable while kernel-boundary behaviour is still
    exercised.  ``address_offset`` (in lines) relocates the address space for
    multi-program co-execution.
    """
    if num_ctas <= 0 or total_accesses <= 0:
        raise ValueError("need positive CTA count and access budget")
    kernels_to_run = spec.num_kernels
    if max_kernels is not None:
        kernels_to_run = min(kernels_to_run, max_kernels)

    rng = random.Random(spec.seed)
    shared_base = address_offset
    private_base = address_offset + spec.shared_lines
    private_region = max(1, int(spec.private_kb_per_cta * 1024 / LINE_BYTES))

    accesses_per_kernel = max(1, total_accesses // kernels_to_run)
    accesses_per_cta = max(4, accesses_per_kernel // num_ctas)

    kernels = []
    for k in range(kernels_to_run):
        ctas = []
        for cta_id in range(num_ctas):
            n_shared = int(accesses_per_cta * spec.shared_frac)
            n_private = accesses_per_cta - n_shared
            shared = _shared_stream(spec, rng, n_shared, shared_base)
            private = _private_stream(
                spec, rng, n_private,
                private_base + cta_id * private_region)
            keys = interleave(rng, shared, private, spec.shared_frac,
                              1.0 - spec.shared_frac)
            writes = _mark_output_writes(spec, rng, keys, set(private))
            ctas.append(CTAStream(cta_id=cta_id, keys=keys, writes=writes))
        bypass_lo = bypass_hi = 0
        if spec.l1_bypass_shared:
            bypass_lo = shared_base
            bypass_hi = shared_base + spec.shared_lines
        kernels.append(KernelTrace(kernel_id=k, ctas=ctas,
                                   instrs_per_access=spec.instrs_per_access,
                                   warps_per_cta=spec.warps_per_cta,
                                   barrier_interval=spec.barrier_interval,
                                   l1_bypass_lo=bypass_lo,
                                   l1_bypass_hi=bypass_hi))

    return Workload(
        name=spec.abbr,
        kernels=kernels,
        category=spec.category,
        shared_mb=spec.shared_mb,
        uses_atomics=spec.uses_atomics,
        metadata={
            "full_name": spec.name,
            "table2_kernels": spec.num_kernels,
            "kernels_run": kernels_to_run,
            "spec": spec,
        },
    )
