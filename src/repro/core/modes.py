"""LLC organization modes and slice indexing (paper Section 2.1).

In either mode, a slice caches only the memory partition of its own memory
controller; what changes is which slice *within* the controller serves a
request:

* **shared** — address bits pick the slice; every line lives in exactly one
  of the 64 slices, shared by all SMs;
* **private** — the requester's cluster id picks the slice; each cluster
  owns one slice per controller and can cache the controller's whole
  partition there (replicating lines other clusters also cache).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mem.address_map import AddressMapping


class LLCMode(enum.Enum):
    """Current LLC organization."""

    SHARED = "shared"
    PRIVATE = "private"

    @property
    def is_private(self) -> bool:
        return self is LLCMode.PRIVATE


def target_slice(mode: LLCMode, mapping: AddressMapping, line_key: int,
                 cluster_id: int) -> tuple[int, int]:
    """Route a request: returns ``(mc_id, slice_local)``.

    The MC is always address-determined (memory-side caching); the slice
    within the MC is address-determined under shared caching and
    cluster-determined under private caching.
    """
    mc = mapping.mc_of(line_key)
    if mode is LLCMode.PRIVATE:
        if not 0 <= cluster_id < mapping.slices_per_mc:
            raise ValueError(
                f"cluster {cluster_id} has no private slice "
                f"({mapping.slices_per_mc} slices per MC)"
            )
        return mc, cluster_id
    return mc, mapping.slice_of(line_key)
