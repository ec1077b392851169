"""Auxiliary Tag Directory (ATD) — the private-miss-rate estimator.

Dynamic set sampling (Qureshi et al. [40] in the paper): while the LLC runs
in *shared* mode, a small tag-only directory shadows a handful of sets of one
slice.  Each ATD entry stores the tag plus the SM-router (cluster) that last
touched the line.  An ATD hit whose requester matches the stored router would
also have hit a *private* slice, so::

    est. private miss rate = 1 - same_router_hits / sampled_accesses

The measured shared miss rate over the same sampled accesses is read from the
ATD too (any-hit), making the two estimates directly comparable for Rule #1.
Hardware budget is 432 bytes in the paper; :meth:`hardware_bytes` exposes our
equivalent for the overhead test.
"""

# repro: hot-path
from __future__ import annotations


class AuxiliaryTagDirectory:
    """Tag-only sampled shadow of an LLC slice.

    Each sampled set is a list of its resident keys, least recently
    touched first, exactly like :class:`~repro.cache.setassoc.SetAssocCache`
    (see its "Tag-array layout" notes); one ``{key: router}`` dict holds
    the SM-router that last touched each resident key.

    Parameters
    ----------
    sampled_sets:
        Number of shadowed sets (paper: 8).
    assoc:
        Associativity, matching the LLC (paper: 16).
    num_sets:
        Total sets in the shadowed slice; a line is sampled when its set
        index (key modulo ``num_sets``, as the slice indexes) falls on one
        of the ``sampled_sets`` evenly spaced sets.
    num_routers:
        SM-router (cluster) count; bounds the router field width.
    """

    __slots__ = ("sampled_sets", "assoc", "num_sets", "num_routers",
                 "_sets", "_router",
                 "sampled_accesses", "any_hits", "same_router_hits")

    # repro: cold
    def __init__(self, sampled_sets: int, assoc: int, num_sets: int,
                 num_routers: int):
        if sampled_sets <= 0 or sampled_sets > num_sets:
            raise ValueError("sampled_sets must be in [1, num_sets]")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.sampled_sets = sampled_sets
        self.assoc = assoc
        self.num_sets = num_sets
        self.num_routers = num_routers
        stride = max(1, num_sets // sampled_sets)
        # Sampled set index -> resident keys, LRU first and MRU last.
        self._sets: dict[int, list[int]] = {
            stride * i: [] for i in range(sampled_sets)}
        # Resident key -> router of its last access.
        self._router: dict[int, int] = {}
        # profiling counters
        self.sampled_accesses = 0
        self.any_hits = 0
        self.same_router_hits = 0

    # ------------------------------------------------------------ sampling
    def observe(self, line_key: int, router_id: int) -> None:
        """Feed one shared-LLC access into the sampler (cheap no-op for
        lines whose set is not shadowed)."""
        keys = self._sets.get(line_key % self.num_sets)
        if keys is None:
            return
        if not 0 <= router_id < self.num_routers:
            raise ValueError(f"router id {router_id} out of range")
        self.sampled_accesses += 1
        router = self._router
        if line_key in keys:
            self.any_hits += 1
            if router[line_key] == router_id:
                self.same_router_hits += 1
            keys.remove(line_key)
        elif len(keys) >= self.assoc:
            # Miss into a full set: evict the LRU key, as the shadowed
            # cache would.
            del router[keys.pop(0)]
        keys.append(line_key)
        router[line_key] = router_id

    # ------------------------------------------------------------ estimates
    @property
    def shared_miss_rate(self) -> float:
        """Measured miss rate of the shadowed (shared-mode) sets."""
        if self.sampled_accesses == 0:
            return 0.0
        return 1.0 - self.any_hits / self.sampled_accesses

    @property
    def private_miss_rate(self) -> float:
        """Estimated miss rate had the LLC been private per cluster."""
        if self.sampled_accesses == 0:
            return 0.0
        return 1.0 - self.same_router_hits / self.sampled_accesses

    def reset(self) -> None:
        """Start a fresh profiling phase (tags retained, counters cleared).

        Retaining tags mirrors hardware: the ATD keeps shadowing between
        phases, only the counters are architectural state."""
        self.sampled_accesses = 0
        self.any_hits = 0
        self.same_router_hits = 0

    # ------------------------------------------------------------ overhead
    # repro: cold
    def hardware_bytes(self, tag_bits: int = 24) -> int:
        """Storage estimate: tag + valid + one bit per SM-router, per entry."""
        entry_bits = tag_bits + 1 + self.num_routers
        total_bits = entry_bits * self.sampled_sets * self.assoc
        return (total_bits + 7) // 8
