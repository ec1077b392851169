"""Multi-program co-execution (paper Section 6.3, Figures 9 and 15).

N applications share the GPU.  The default placement is the paper's
Figure 9 rule generalized to N tenants: every cluster is divided between
all programs (for two programs: first half of each cluster runs program 0,
second half runs program 1), which distributes every program across all
clusters so each can use the whole LLC.  Consolidation experiments swap in
other placements from :mod:`repro.consolidate.placement` via the
``placement`` attribute.  Address spaces are disjoint via a per-program
line offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.workloads.catalog import benchmark
from repro.workloads.generator import generate_workload
from repro.workloads.trace import Workload

#: Line offset separating co-running address spaces (1 TB worth of lines).
ADDRESS_SPACE_STRIDE = 1 << 33


@dataclass
class MultiProgramWorkload:
    """An N-program mix plus its per-program placement rule.

    ``placement`` is an optional SM-placement policy instance (anything
    with an ``assign(num_sms, sms_per_cluster, n_tenants)`` method, see
    :mod:`repro.consolidate.placement`); ``None`` means the built-in
    generalized Figure 9 cluster-split rule.
    """

    name: str
    programs: tuple[Workload, ...]
    placement: Optional[object] = None

    def program_of_sm(self, sm_id: int, sms_per_cluster: int) -> int:
        """Default placement: every cluster is divided between the N
        programs in order; program t owns in-cluster positions
        ``[t*spc//N, (t+1)*spc//N)``.  For N=2 this is exactly Figure 9's
        half-and-half split (odd cluster widths included)."""
        n = len(self.programs)
        pos = sm_id % sms_per_cluster
        for tenant in range(n):
            if pos < (tenant + 1) * sms_per_cluster // n:
                return tenant
        return n - 1

    def sm_assignment(self, num_sms: int,
                      sms_per_cluster: int) -> list[int]:
        """Program id per SM under the attached (or default) placement."""
        if self.placement is not None:
            out = self.placement.assign(  # type: ignore[attr-defined]
                num_sms, sms_per_cluster, len(self.programs))
            return list(out)
        return [self.program_of_sm(sm, sms_per_cluster)
                for sm in range(num_sms)]


def make_mix(abbrs: Sequence[str], total_accesses: int = 40_000,
             num_ctas: int = 160, max_kernels: int | None = 2,
             placement: Optional[object] = None) -> MultiProgramWorkload:
    """Build an N-program workload from catalog abbreviations.

    Each program keeps the full access budget: it runs on a fraction of
    the SMs but its trace must still cover its natural footprint (dividing
    the budget would wreck each program's working-set reuse and turn the
    mix into a pure DRAM-bandwidth fight).  CTAs are divided evenly;
    program ``i`` lives ``i`` address-space strides up so tenant address
    spaces never overlap.
    """
    if not abbrs:
        raise ValueError("a mix needs at least one program")
    n = len(abbrs)
    ctas_each = num_ctas // n
    if ctas_each < 1:
        raise ValueError(
            f"{num_ctas} CTAs cannot be divided over {n} programs")
    programs = tuple(
        generate_workload(benchmark(abbr), num_ctas=ctas_each,
                          total_accesses=total_accesses,
                          max_kernels=max_kernels,
                          address_offset=i * ADDRESS_SPACE_STRIDE)
        for i, abbr in enumerate(abbrs))
    return MultiProgramWorkload(name="+".join(abbrs), programs=programs,
                                placement=placement)


def all_shared_private_pairs() -> list[tuple[str, str]]:
    """Every (shared-friendly, private-friendly) combination — the 30 mixes
    of Figure 15."""
    from repro.workloads.catalog import CATEGORIES

    return [(a, b) for a in CATEGORIES["shared"] for b in CATEGORIES["private"]]
