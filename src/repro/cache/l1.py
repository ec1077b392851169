"""Per-SM L1 data cache.

GPU software coherence (paper Section 4.1) requires the L1 to be
write-through with compiler-inserted flushes at kernel boundaries, so the L1
never holds dirty data.  Write misses do not allocate (standard GPU L1
behaviour); read misses allocate on fill.
"""

from __future__ import annotations

from repro.cache.setassoc import SetAssocCache


class L1Cache:
    """L1 data cache front-end for one SM.

    The L1 is purely functional in the timing model: hits are absorbed at the
    SM (their latency is hidden by warp parallelism), misses escalate to the
    NoC/LLC path.  ``access`` therefore only answers hit/miss and maintains
    content + statistics.
    """

    def __init__(self, size_kb: int, assoc: int, line_bytes: int, name: str = ""):
        num_sets = size_kb * 1024 // (line_bytes * assoc)
        if num_sets <= 0:
            raise ValueError(
                f"L1 geometry {size_kb}KB/{assoc}-way/{line_bytes}B "
                f"holds less than one set"
            )
        self.name = name
        self.line_bytes = line_bytes
        self._store = SetAssocCache(num_sets, assoc, allocate_on_write=False,
                                    name=name)
        self.read_hits = 0
        self.read_misses = 0
        self.writes = 0

    def probe(self, line_key: int) -> bool:
        """Non-intrusive hit check: no allocation, no stats, no recency
        update.  The SM front-end probes before committing to an issue slot
        so that deferred issues do not mutate cache state early."""
        return self._store.probe(line_key)

    def lookup_read(self, line_key: int) -> bool:
        """Single-lookup read: commit the hit (stats + recency) when the
        line is resident, touch *nothing* on a miss.

        This folds the hot-path ``probe`` + ``access`` pair into one set
        scan.  The asymmetry is deliberate: an L1 hit is consumed eagerly at
        the SM, but a miss must stay side-effect-free because the issue may
        still be deferred to a later slot — the miss is counted at the
        NoC-issue point via :meth:`record_read_miss` and the line installed
        at fill time via :meth:`fill`."""
        if self._store.access_if_hit(line_key):
            self.read_hits += 1
            return True
        return False

    def access(self, line_key: int, is_write: bool) -> bool:
        """Returns True on hit.  Writes are write-through: they always
        propagate downstream, so callers must send write traffic to the LLC
        regardless of the returned value."""
        if is_write:
            self.writes += 1
            # Write-through, no write-allocate: a hit only touches
            # recency (the line stays clean), a miss allocates nothing.
            if not self._store.access_if_hit(line_key):
                self._store.misses += 1
            return False  # writes always go downstream
        res = self._store.access(line_key, is_write=False)
        if res.hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return res.hit

    def record_read_miss(self) -> None:
        """Count a read miss whose allocation is deferred to fill time (the
        SM front-end counts the miss at issue; :meth:`fill` inserts the data
        when it returns without double-counting)."""
        self.read_misses += 1

    def fill(self, line_key: int) -> None:
        """Install a returned line (allocate-on-fill)."""
        self._store.insert(line_key)

    def flush(self) -> int:
        """Kernel-boundary invalidate (software coherence).  L1 is
        write-through so nothing needs writing back; returns lines dropped."""
        valid, _dirty = self._store.flush()
        return valid

    # -------------------------------------------------------------- stats
    @property
    def read_accesses(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def miss_rate(self) -> float:
        total = self.read_accesses
        return self.read_misses / total if total else 0.0

    def occupancy(self) -> int:
        return self._store.occupancy()

    def reset_stats(self) -> None:
        self.read_hits = self.read_misses = self.writes = 0
        self._store.reset_stats()
