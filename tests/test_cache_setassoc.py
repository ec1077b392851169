"""Tests for the set-associative tag store."""

from collections import OrderedDict

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cache.setassoc import AccessResult, SetAssocCache


def test_miss_then_hit():
    c = SetAssocCache(num_sets=4, assoc=2)
    assert not c.access(0x10).hit
    assert c.access(0x10).hit
    assert c.hits == 1 and c.misses == 1


def test_eviction_reports_victim():
    c = SetAssocCache(num_sets=1, assoc=2)
    c.access(1)
    c.access(2)
    res = c.access(3)  # evicts 1 (LRU)
    assert not res.hit
    assert res.evicted_key == 1
    assert not c.probe(1)
    assert c.probe(2) and c.probe(3)


def test_dirty_eviction_flagged():
    c = SetAssocCache(num_sets=1, assoc=1)
    c.access(5, is_write=True)
    res = c.access(6)
    assert res.evicted_key == 5
    assert res.evicted_dirty
    assert c.writebacks == 1


def test_write_hit_marks_dirty():
    c = SetAssocCache(num_sets=1, assoc=1)
    c.access(5)
    c.access(5, is_write=True)
    _, dirty = c.flush()
    assert dirty == [5]


def test_no_write_allocate_mode():
    c = SetAssocCache(num_sets=4, assoc=2, allocate_on_write=False)
    res = c.access(7, is_write=True)
    assert not res.hit and not res.allocated
    assert not c.probe(7)
    # read miss still allocates
    c.access(7)
    assert c.probe(7)


def test_modulo_indexing_supports_non_power_of_two_sets():
    c = SetAssocCache(num_sets=48, assoc=16)
    for key in range(48 * 16):
        c.access(key)
    assert c.occupancy() == 48 * 16
    assert all(c.probe(key) for key in range(48 * 16))


def test_probe_does_not_affect_state():
    c = SetAssocCache(num_sets=2, assoc=1)
    assert not c.probe(9)
    assert c.hits == 0 and c.misses == 0
    assert not c.probe(9)


def test_invalidate():
    c = SetAssocCache(num_sets=2, assoc=2)
    c.access(4)
    assert c.invalidate(4)
    assert not c.probe(4)
    assert not c.invalidate(4)


def test_flush_counts_and_clears():
    c = SetAssocCache(num_sets=2, assoc=2)
    c.access(1)
    c.access(2, is_write=True)
    valid, dirty = c.flush()
    assert (valid, dirty) == (2, [2])
    assert c.occupancy() == 0


def test_clean_preserves_contents():
    c = SetAssocCache(num_sets=2, assoc=2)
    c.access(1, is_write=True)
    assert c.clean() == [1]
    assert c.probe(1)
    _, dirty = c.flush()
    assert dirty == []


def test_lru_within_set():
    c = SetAssocCache(num_sets=1, assoc=3)
    for key in [1, 2, 3]:
        c.access(key)
    c.access(1)       # 2 now LRU
    c.access(4)       # evicts 2
    assert not c.probe(2)
    assert c.probe(1) and c.probe(3) and c.probe(4)


def test_miss_rate_and_reset_stats():
    c = SetAssocCache(num_sets=2, assoc=1)
    c.access(0)
    c.access(0)
    assert c.miss_rate == pytest.approx(0.5)
    c.reset_stats()
    assert c.accesses == 0 and c.miss_rate == 0.0


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SetAssocCache(num_sets=0, assoc=1)
    with pytest.raises(ValueError):
        SetAssocCache(num_sets=2, assoc=0)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(keys):
    c = SetAssocCache(num_sets=4, assoc=2)
    for k in keys:
        c.access(k)
    assert c.occupancy() <= 8
    assert c.hits + c.misses == len(keys)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_working_set_smaller_than_capacity_never_evicts(keys):
    """A working set that fits in one set's ways never misses twice per key."""
    c = SetAssocCache(num_sets=1, assoc=64)
    for k in keys:
        c.access(k)
    assert c.misses == len(set(keys))


@settings(max_examples=30)
@given(st.lists(st.integers(0, 1023), min_size=1, max_size=500))
def test_resident_keys_consistent_with_probe(keys):
    c = SetAssocCache(num_sets=8, assoc=4)
    for k in keys:
        c.access(k)
    resident = c.resident_keys()
    assert len(resident) == c.occupancy()
    assert all(c.probe(k) for k in resident)


class _ReferenceLRU:
    """Textbook LRU: one ``OrderedDict`` per set mapping each resident key
    to its dirty flag, least recently touched first."""

    def __init__(self, num_sets, assoc, allocate_on_write):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.assoc = assoc
        self.allocate_on_write = allocate_on_write
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def _set(self, key):
        return self.sets[key % len(self.sets)]

    def probe(self, key):
        return key in self._set(key)

    def _touch(self, lines, key, dirty):
        lines.move_to_end(key)
        if dirty:
            lines[key] = True

    def _fill(self, lines, key, dirty):
        victim, victim_dirty = None, False
        if len(lines) == self.assoc:
            victim, victim_dirty = lines.popitem(last=False)
            self.evictions += 1
            self.writebacks += victim_dirty
        lines[key] = dirty
        return AccessResult(hit=False, allocated=True, evicted_key=victim,
                            evicted_dirty=victim_dirty)

    def access(self, key, is_write):
        lines = self._set(key)
        if key in lines:
            self.hits += 1
            self._touch(lines, key, is_write)
            return AccessResult(hit=True)
        self.misses += 1
        if is_write and not self.allocate_on_write:
            return AccessResult(hit=False)
        return self._fill(lines, key, is_write)

    def access_if_hit(self, key):
        lines = self._set(key)
        if key in lines:
            self.hits += 1
            self._touch(lines, key, False)
            return True
        return False

    def insert(self, key, dirty):
        lines = self._set(key)
        if key in lines:
            self._touch(lines, key, dirty)
            return AccessResult(hit=True)
        return self._fill(lines, key, dirty)

    def invalidate(self, key):
        lines = self._set(key)
        if key in lines:
            del lines[key]
            return True
        return False

    def clean(self):
        dirty = []
        for lines in self.sets:
            for key, is_dirty in lines.items():
                if is_dirty:
                    dirty.append(key)
                    lines[key] = False
        self.writebacks += len(dirty)
        return sorted(dirty)

    def flush(self):
        valid = sum(len(lines) for lines in self.sets)
        dirty = self.clean()
        for lines in self.sets:
            lines.clear()
        return valid, dirty


# Operation mix weighted toward fills and hits: frequent flushes would
# keep the sets from filling up and erase the recency state the final
# sweep checks.
_OPS = st.lists(st.tuples(
    st.sampled_from(["access"] * 6 + ["access_if_hit", "insert"] * 4
                    + ["invalidate"] * 2 + ["probe", "clean", "flush"]),
    st.integers(0, 15), st.booleans()), min_size=30, max_size=300)


def _apply(target, op, key, flag):
    if op in ("access", "insert"):
        return getattr(target, op)(key, flag)
    if op in ("clean", "flush"):
        return getattr(target, op)()
    return getattr(target, op)(key)


@seed(2019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), _OPS)
def test_matches_reference_lru(num_sets, assoc, allocate_on_write, ops):
    """Differential test against a reference LRU over random operation
    sequences: every return value (each ``AccessResult`` field included)
    and every statistic agree after each step.  A final sweep of fresh
    keys evicts every resident line, so the victims' order checks the
    recency state the steps left behind."""
    cache = SetAssocCache(num_sets, assoc,
                          allocate_on_write=allocate_on_write)
    ref = _ReferenceLRU(num_sets, assoc, allocate_on_write)
    for step in ops:
        assert _apply(cache, *step) == _apply(ref, *step), step
        assert (cache.hits, cache.misses, cache.evictions,
                cache.writebacks) == (ref.hits, ref.misses, ref.evictions,
                                      ref.writebacks), step
    for key in range(16):
        assert cache.probe(key) == ref.probe(key)
    for fresh in range(100, 164):
        assert _apply(cache, "access", fresh, False) == \
            _apply(ref, "access", fresh, False), fresh
