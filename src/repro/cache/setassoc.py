"""Generic set-associative tag store with true-LRU replacement.

Keys are *line addresses* (byte address divided by line size), and a key's
set is ``key % num_sets``.  The cache stores the full key, so any indexing
function is correctness-safe.

Tag-array layout
----------------
The paper's L1 and LLC are both true LRU (Table 1), so each set is one
plain list of its resident keys in recency order: least recently touched
first, most recently touched last.  There are no invalid-way slots, no way
indices and no per-set policy object:

* a hit is ``key in keys`` (one C-speed scan) followed by
  ``keys.remove(key); keys.append(key)``;
* a fill appends, first evicting ``keys.pop(0)`` when the set is full;
* an invalidation removes the key.

This is exactly way-indexed LRU with the *first invalid way, else the LRU
victim* fill rule: a set only evicts when every way is valid, and every
valid way was touched at its fill, so the list's head is always the least
recently touched resident key.  Dirty state is one ``set`` of dirty keys
per cache (a key lives in exactly one set, and the dirty set only ever
holds resident keys).  The batch tier (:mod:`repro.gpu.batchpath`) inlines
the same list operations against ``_sets``/``_dirty``, which are only ever
mutated in place.
"""

# repro: hot-path
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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
    """A set-associative LRU cache of line keys.

    Parameters
    ----------
    num_sets, assoc:
        Geometry; ``num_sets`` may be any positive count (the paper's 96 KB
        16-way slices have 48 sets), indexed by modulo.
    allocate_on_write:
        When False, write misses do not fill the cache (GPU L1 behaviour).
    """

    __slots__ = ("name", "num_sets", "assoc",
                 "allocate_on_write", "_sets", "_dirty",
                 "hits", "misses", "evictions", "writebacks")

    # repro: cold
    def __init__(self, num_sets: int, assoc: int,
                 allocate_on_write: bool = True, name: str = ""):
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self.allocate_on_write = allocate_on_write
        # Per-set resident keys, LRU first and MRU last; dirty resident keys.
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._dirty: set[int] = set()
        # stats
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------ indexing
    def set_index(self, key: int) -> int:
        return key % self.num_sets

    # ------------------------------------------------------------- access
    def probe(self, key: int) -> bool:
        """Non-intrusive lookup: no stats, no recency update, no fill."""
        return key in self._sets[key % self.num_sets]

    def access_if_hit(self, key: int) -> bool:
        """One-scan read lookup: on hit, count it and update recency (like
        :meth:`access`); on miss, mutate nothing — not even the miss
        counter (like :meth:`probe`).  Returns the hit outcome.

        Callers that defer allocation to fill time (the L1 front end) use
        this to collapse their probe-then-access double scan."""
        keys = self._sets[key % self.num_sets]
        if key in keys:
            self.hits += 1
            keys.remove(key)
            keys.append(key)
            return True
        return False

    def access(self, key: int, is_write: bool = False) -> AccessResult:
        """Lookup + (on miss) allocate.  Updates stats and recency."""
        keys = self._sets[key % self.num_sets]
        if key in keys:
            self.hits += 1
            keys.remove(key)
            keys.append(key)
            if is_write:
                self._dirty.add(key)
            return _HIT

        self.misses += 1
        if is_write and not self.allocate_on_write:
            return _MISS_BYPASS
        return self._fill(keys, key, is_write)

    def insert(self, key: int, dirty: bool = False) -> AccessResult:
        """Fill ``key`` without touching hit/miss statistics (used when the
        allocation happens at data-return time and the miss was already
        counted at request time).  A resident key only has its recency
        (and, when ``dirty``, its dirty bit) updated."""
        keys = self._sets[key % self.num_sets]
        if key in keys:
            keys.remove(key)
            keys.append(key)
            if dirty:
                self._dirty.add(key)
            return _HIT
        return self._fill(keys, key, dirty)

    def _fill(self, keys: list[int], key: int, dirty: bool) -> AccessResult:
        """Append ``key`` as MRU, first evicting the LRU key when the set
        is full; shared by :meth:`access` / :meth:`insert`."""
        result = _MISS_CLEAN
        if len(keys) >= self.assoc:
            victim = keys.pop(0)
            self.evictions += 1
            victim_dirty = victim in self._dirty
            if victim_dirty:
                self._dirty.remove(victim)
                self.writebacks += 1
            result = AccessResult(hit=False, allocated=True,
                                  evicted_key=victim,
                                  evicted_dirty=victim_dirty)
        keys.append(key)
        if dirty:
            self._dirty.add(key)
        return result

    # --------------------------------------------------------- management
    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if present; returns whether it was found."""
        keys = self._sets[self.set_index(key)]
        if key in keys:
            keys.remove(key)
            self._dirty.discard(key)
            return True
        return False

    def flush(self) -> tuple[int, list[int]]:
        """Invalidate everything.  Returns ``(valid_lines, dirty_keys)`` so
        callers can write the dirty lines back (see :meth:`clean`)."""
        valid = 0
        for keys in self._sets:
            if keys:
                valid += len(keys)
                keys.clear()
        return valid, self.clean()

    def clean(self) -> list[int]:
        """Mark all lines clean, keep them; returns the sorted dirty keys."""
        if not self._dirty:
            return []
        dirty = sorted(self._dirty)
        self._dirty.clear()
        self.writebacks += len(dirty)
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
        return sum(len(keys) for keys in self._sets)

    # repro: cold
    def resident_keys(self) -> list[int]:
        """All valid keys, set by set in LRU-to-MRU order (test/diagnostic
        helper)."""
        return [k for keys in self._sets for k in keys]

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
