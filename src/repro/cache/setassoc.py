"""Generic set-associative tag store.

Keys are *line addresses* (byte address divided by line size).  The cache
stores the full key in each way, so any indexing function is correctness-safe;
``index_shift`` selects which key bits form the set index so callers can skip
bits already consumed by slice selection (otherwise a memory-side slice would
only ever populate 1/num_slices of its sets).

Tag-array layout
----------------
Each set is a plain list of keys (``None`` marks an invalid way) plus a
parallel list of dirty bits.  Tag matching therefore runs as ``key in keys``
followed by ``keys.index(key)`` — two C-speed scans — instead of a Python
loop over line objects, which dominated the simulator profile at 16-way
associativity (the paper's LLC slices).  The membership test goes first
because streaming workloads miss far more often than they hit, and ``in`` on
a miss costs one scan with no exception machinery.  Victim selection keeps
the architectural rule *first invalid way, else ask the replacement policy*:
``keys.index(None)`` finds the first invalid way in the same C scan.
"""

# repro: hot-path
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.replacement import make_policy


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of a cache access.

    ``evicted_key``/``evicted_dirty`` describe the victim when an allocation
    displaced a valid line (None/False otherwise).  Instances are immutable;
    the outcome shapes that carry no victim information are shared
    singletons (``_HIT``, ``_MISS_BYPASS``, ``_MISS_CLEAN``) so the hot
    paths allocate nothing.
    """

    hit: bool
    allocated: bool = False
    evicted_key: Optional[int] = None
    evicted_dirty: bool = False


_HIT = AccessResult(hit=True)
_MISS_BYPASS = AccessResult(hit=False, allocated=False)
_MISS_CLEAN = AccessResult(hit=False, allocated=True)


class SetAssocCache:
    """A set-associative cache of line keys with pluggable replacement.

    Parameters
    ----------
    num_sets, assoc:
        Geometry; ``num_sets`` may be any positive count (the paper's 96 KB
        16-way slices have 48 sets), indexed by modulo.
    index_shift:
        Key bits to skip before extracting the set index (used by LLC slices
        to index above the slice-select bits).
    policy:
        Replacement policy name accepted by :func:`repro.cache.replacement.make_policy`.
    allocate_on_write:
        When False, write misses do not fill the cache (GPU L1 behaviour).
    """

    __slots__ = ("name", "num_sets", "assoc", "index_shift",
                 "allocate_on_write", "_keys", "_dirty", "_policies",
                 "hits", "misses", "evictions", "writebacks")

    # repro: cold
    def __init__(self, num_sets: int, assoc: int, index_shift: int = 0,
                 policy: str = "lru", allocate_on_write: bool = True,
                 name: str = ""):
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self.index_shift = index_shift
        self.allocate_on_write = allocate_on_write
        # Parallel per-set arrays: way -> key (None = invalid), way -> dirty.
        self._keys: list[list[Optional[int]]] = [
            [None] * assoc for _ in range(num_sets)]
        self._dirty: list[list[bool]] = [
            [False] * assoc for _ in range(num_sets)]
        self._policies = [make_policy(policy, assoc) for _ in range(num_sets)]
        # stats
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------ indexing
    def set_index(self, key: int) -> int:
        return (key >> self.index_shift) % self.num_sets

    # ------------------------------------------------------------- access
    def probe(self, key: int) -> bool:
        """Non-intrusive lookup: no stats, no recency update, no fill."""
        return key in self._keys[(key >> self.index_shift) % self.num_sets]

    def access_if_hit(self, key: int) -> bool:
        """One-scan read lookup: on hit, count it and update recency (like
        :meth:`access`); on miss, mutate nothing — not even the miss
        counter (like :meth:`probe`).  Returns the hit outcome.

        Callers that defer allocation to fill time (the L1 front end) use
        this to collapse their probe-then-access double scan."""
        set_idx = (key >> self.index_shift) % self.num_sets
        keys = self._keys[set_idx]
        if key in keys:
            self.hits += 1
            self._policies[set_idx].on_access(keys.index(key))
            return True
        return False

    def access(self, key: int, is_write: bool = False) -> AccessResult:
        """Lookup + (on miss) allocate.  Updates stats and recency."""
        set_idx = (key >> self.index_shift) % self.num_sets
        keys = self._keys[set_idx]
        policy = self._policies[set_idx]

        if key in keys:
            way = keys.index(key)
            self.hits += 1
            policy.on_access(way)
            if is_write:
                self._dirty[set_idx][way] = True
            return _HIT

        self.misses += 1
        if is_write and not self.allocate_on_write:
            return _MISS_BYPASS
        return self._allocate(set_idx, keys, policy, key, bool(is_write))

    def insert(self, key: int, dirty: bool = False) -> AccessResult:
        """Fill ``key`` without touching hit/miss statistics (used when the
        allocation happens at data-return time and the miss was already
        counted at request time).  No-op when the key is already resident."""
        set_idx = (key >> self.index_shift) % self.num_sets
        keys = self._keys[set_idx]
        policy = self._policies[set_idx]
        if key in keys:
            way = keys.index(key)
            policy.on_access(way)
            if dirty:
                self._dirty[set_idx][way] = True
            return _HIT
        return self._allocate(set_idx, keys, policy, key, dirty)

    def _allocate(self, set_idx: int, keys, policy, key: int,
                  dirty: bool) -> AccessResult:
        """Victim selection + fill, shared by :meth:`access` / :meth:`insert`.
        Prefers the first invalid way, else asks the replacement policy."""
        dirty_bits = self._dirty[set_idx]
        if None in keys:
            way = keys.index(None)
            result = _MISS_CLEAN
        else:
            way = policy.victim()
            self.evictions += 1
            victim_dirty = dirty_bits[way]
            if victim_dirty:
                self.writebacks += 1
            result = AccessResult(hit=False, allocated=True,
                                  evicted_key=keys[way],
                                  evicted_dirty=victim_dirty)
        keys[way] = key
        dirty_bits[way] = dirty
        policy.on_access(way)
        return result

    # --------------------------------------------------------- management
    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if present; returns whether it was found."""
        set_idx = self.set_index(key)
        keys = self._keys[set_idx]
        if key in keys:
            way = keys.index(key)
            keys[way] = None
            self._dirty[set_idx][way] = False
            self._policies[set_idx].on_invalidate(way)
            return True
        return False

    def flush(self) -> tuple[int, int]:
        """Invalidate everything.  Returns ``(valid_lines, dirty_lines)`` so
        callers can account writeback traffic and reconfiguration time."""
        valid = dirty = 0
        for set_idx, keys in enumerate(self._keys):
            dirty_bits = self._dirty[set_idx]
            for way, k in enumerate(keys):
                if k is not None:
                    valid += 1
                    if dirty_bits[way]:
                        dirty += 1
                        self.writebacks += 1
                    keys[way] = None
                    dirty_bits[way] = False
        return valid, dirty

    def clean(self) -> int:
        """Write back all dirty lines without invalidating.  Returns count."""
        dirty = 0
        for set_idx, keys in enumerate(self._keys):
            dirty_bits = self._dirty[set_idx]
            for way, k in enumerate(keys):
                if k is not None and dirty_bits[way]:
                    dirty += 1
                    dirty_bits[way] = False
                    self.writebacks += 1
        return dirty

    # -------------------------------------------------------------- stats
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    # repro: cold
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for keys in self._keys for k in keys if k is not None)

    # repro: cold
    def resident_keys(self) -> list[int]:
        """All valid keys (test/diagnostic helper)."""
        return [k for keys in self._keys for k in keys if k is not None]

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
