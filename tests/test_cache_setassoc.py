"""Tests for the set-associative tag store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.setassoc import SetAssocCache


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
    assert dirty == 1


def test_no_write_allocate_mode():
    c = SetAssocCache(num_sets=4, assoc=2, allocate_on_write=False)
    res = c.access(7, is_write=True)
    assert not res.hit and not res.allocated
    assert not c.probe(7)
    # read miss still allocates
    c.access(7)
    assert c.probe(7)


def test_index_shift_spreads_across_sets():
    """With index_shift, keys differing only in low bits share a set."""
    c = SetAssocCache(num_sets=8, assoc=1, index_shift=3)
    assert c.set_index(0b000_001) == c.set_index(0b000_111)
    assert c.set_index(0b001_000) != c.set_index(0b010_000)


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
    assert (valid, dirty) == (2, 1)
    assert c.occupancy() == 0


def test_clean_preserves_contents():
    c = SetAssocCache(num_sets=2, assoc=2)
    c.access(1, is_write=True)
    assert c.clean() == 1
    assert c.probe(1)
    _, dirty = c.flush()
    assert dirty == 0


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
