"""Tests for the L1 cache and LLC slice models."""

import pytest

from repro.cache.l1 import L1Cache
from repro.cache.llc_slice import LLCSlice


def make_l1():
    return L1Cache(size_kb=48, assoc=6, line_bytes=128)


def make_slice(**kw):
    defaults = dict(slice_id=0, num_sets=48, assoc=16, line_flits=4,
                    latency=120.0)
    defaults.update(kw)
    return LLCSlice(**defaults)


# --------------------------------------------------------------------- L1
def test_l1_read_miss_then_hit():
    l1 = make_l1()
    assert not l1.access(0x40, is_write=False)
    assert l1.access(0x40, is_write=False)
    assert l1.read_hits == 1 and l1.read_misses == 1


def test_l1_writes_always_go_downstream():
    l1 = make_l1()
    l1.access(0x40, is_write=False)
    assert l1.access(0x40, is_write=True) is False
    assert l1.writes == 1


def test_l1_write_miss_does_not_allocate():
    l1 = make_l1()
    l1.access(0x99, is_write=True)
    assert not l1.access(0x99, is_write=False)  # still a read miss


def test_l1_flush_drops_contents():
    l1 = make_l1()
    l1.access(1, False)
    l1.access(2, False)
    assert l1.flush() == 2
    assert l1.occupancy() == 0
    assert not l1.access(1, False)


def test_l1_miss_rate_and_reset():
    l1 = make_l1()
    l1.access(1, False)
    l1.access(1, False)
    assert l1.miss_rate == pytest.approx(0.5)
    l1.reset_stats()
    assert l1.read_accesses == 0


def test_l1_geometry_validation():
    with pytest.raises(ValueError):
        L1Cache(size_kb=0, assoc=6, line_bytes=128)


def test_l1_capacity_eviction():
    """A stream larger than capacity must evict (48KB = 384 lines)."""
    l1 = make_l1()
    lines = 48 * 1024 // 128
    for key in range(lines + 64):
        l1.access(key, False)
    assert l1.occupancy() <= lines
    # Re-touching the earliest keys misses again.
    assert not l1.access(0, False)


# -------------------------------------------------------------------- LLC
def test_llc_read_miss_returns_quickly_hit_pays_port_and_latency():
    s = make_slice()
    hit, done, wb, dwr = s.access(0.0, 0x1000, is_write=False)
    assert not hit
    assert done == pytest.approx(1.0)  # tag resolve only
    assert wb is None and not dwr
    hit, done, _, _ = s.access(10.0, 0x1000, is_write=False)
    assert hit
    # tag (1) + data port (4 flits) + 120 latency
    assert done == pytest.approx(10.0 + 1 + 4 + 120)


def test_llc_data_port_serializes_concurrent_hits():
    """Two hits at the same instant: second response waits for the port."""
    s = make_slice()
    s.access(0.0, 0x2000, False)  # fill tags
    _, t1, _, _ = s.access(100.0, 0x2000, False)
    _, t2, _, _ = s.access(100.0, 0x2000, False)
    assert t2 - t1 == pytest.approx(4.0)  # one line's worth of flits


def test_llc_response_flits_counted():
    s = make_slice()
    s.access(0.0, 1, False)
    s.access(1.0, 1, False)  # hit: 4 body + 1 head
    assert s.response_flits == 5
    s.fill_response(200.0)
    assert s.response_flits == 10


def test_llc_writeback_mode_dirty_eviction():
    s = make_slice(num_sets=1, assoc=1)
    s.access(0.0, 1, is_write=True)
    _, _, wb, dwr = s.access(10.0, 2, is_write=False)
    assert wb == 1  # dirty victim must go to DRAM
    assert not dwr


def test_llc_write_through_mode_sends_writes_to_dram():
    s = make_slice()
    s.set_write_policy(write_through=True)
    hit, _, wb, dwr = s.access(0.0, 1, is_write=True)
    assert dwr
    assert s.dram_writes == 1
    # Write-through lines are never dirty: flush finds no dirty lines.
    _, dirty = s.flush()
    assert dirty == []


def test_llc_flush_reports_dirty_in_writeback_mode():
    s = make_slice()
    s.access(0.0, 1, is_write=True)
    s.access(0.0, 1 + 48, is_write=False)      # same set as key 1
    valid, dirty = s.flush()
    assert valid == 2 and dirty == [1]


def test_llc_clean_then_flush_no_dirty():
    s = make_slice()
    s.access(0.0, 1, is_write=True)
    assert s.clean() == [1]
    _, dirty = s.flush()
    assert dirty == []


def test_llc_stats_roll_up():
    s = make_slice()
    s.access(0.0, 1, False)
    s.access(0.0, 1, False)
    s.access(0.0, 2, True)
    assert s.accesses == 3
    assert s.hits == 1
    assert s.misses == 2
    assert s.miss_rate == pytest.approx(2 / 3)
    assert s.window_accesses == 3
    s.reset_window()
    assert s.window_accesses == 0
    s.reset_stats()
    assert s.accesses == 0 and s.response_flits == 0


def test_llc_consecutive_keys_fill_every_set():
    """Slice selection hashes the line key, so a slice indexes its sets by
    the key itself: 48*16 consecutive keys spread over every set and all
    fit."""
    s = make_slice(num_sets=48)
    for i in range(48 * 16):
        s.access(0.0, i, False)
    assert s.store.occupancy() == 48 * 16
