"""Trace containers.

A workload is a sequence of kernels; a kernel is a set of CTAs (cooperative
thread arrays); a CTA is a stream of line-granular memory accesses plus an
arithmetic-intensity figure (instructions retired per memory access).  The
CTA scheduler (not the workload) decides CTA→SM placement at kernel launch,
which is what makes the scheduling-policy sensitivity study possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CTAStream:
    """One CTA's memory reference stream (line keys + write flags)."""

    cta_id: int
    keys: list[int]
    writes: list[bool]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.writes):
            raise ValueError("keys and writes must have equal length")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def write_count(self) -> int:
        return sum(self.writes)

    def footprint(self) -> set[int]:
        """Distinct lines touched."""
        return set(self.keys)


@dataclass
class KernelTrace:
    """One kernel launch: its CTAs, per-access instruction weight, and the
    number of warps each CTA's stream is split into on an SM."""

    kernel_id: int
    ctas: list[CTAStream]
    instrs_per_access: float = 4.0
    warps_per_cta: int = 8
    barrier_interval: int = 0   # accesses/warp between CTA barriers; 0 = none
    # L1-bypass window [lo, hi): read-only shared data marked cache-global
    # (ld.cg) goes straight to the LLC — the paper's premise that the shared
    # footprint is not L1-resident.  Empty window when lo >= hi.
    l1_bypass_lo: int = 0
    l1_bypass_hi: int = 0

    def __post_init__(self) -> None:
        if self.instrs_per_access <= 0:
            raise ValueError("instrs_per_access must be positive")
        if self.warps_per_cta <= 0:
            raise ValueError("warps_per_cta must be positive")
        if self.barrier_interval < 0:
            raise ValueError("barrier_interval cannot be negative")

    def bypasses_l1(self, line_key: int) -> bool:
        return self.l1_bypass_lo <= line_key < self.l1_bypass_hi

    @property
    def total_accesses(self) -> int:
        return sum(len(c) for c in self.ctas)

    @property
    def total_instructions(self) -> float:
        return self.total_accesses * self.instrs_per_access

    def footprint(self) -> set[int]:
        out: set[int] = set()
        for cta in self.ctas:
            out |= cta.footprint()
        return out


@dataclass
class Workload:
    """A full benchmark: named sequence of kernels plus catalog metadata."""

    name: str
    kernels: list[KernelTrace]
    category: str = "neutral"
    shared_mb: float = 0.0
    uses_atomics: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def total_accesses(self) -> int:
        return sum(k.total_accesses for k in self.kernels)

    @property
    def total_instructions(self) -> float:
        return sum(k.total_instructions for k in self.kernels)
