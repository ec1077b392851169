"""Tests for the SM warp/barrier model."""

import pytest

from repro.config import GPUConfig
from repro.gpu.sm import CTAGroup, StreamingMultiprocessor, WarpContext


def make_sm():
    return StreamingMultiprocessor(0, GPUConfig.baseline())


def accesses(warp):
    """The (key, is_write) pairs a warp issues, in order, from its cursor."""
    return list(zip(warp.keys[warp.cursor::warp.stride],
                    warp.writes[warp.cursor::warp.stride]))


def test_load_kernel_splits_ctas_into_warps():
    sm = make_sm()
    keys = list(range(16))
    writes = [k % 3 == 0 for k in keys]
    sm.load_kernel([(keys, writes)], warps_per_cta=4,
                   instrs_per_access=4.0, now=0.0)
    assert len(sm.warps) == 4
    assert accesses(sm.warps[0]) == [(0, True), (4, False), (8, False),
                                     (12, True)]
    assert accesses(sm.warps[3]) == [(3, True), (7, False), (11, False),
                                     (15, True)]
    # Warps read the CTA's own lists in place.
    assert all(w.keys is keys and w.writes is writes for w in sm.warps)
    assert sm.live_accesses == 16


def test_warp_barriers_fall_every_interval_accesses():
    sm = make_sm()
    sm.load_kernel([(list(range(12)), [False] * 12)], warps_per_cta=3,
                   instrs_per_access=4.0, now=0.0, barrier_interval=2)
    w1 = sm.warps[1]
    # Warp 1 issues positions 1, 4, 7, 10: its barrier falls after two.
    assert w1.next_barrier == 7
    w1.cursor += 2 * w1.stride
    assert w1.at_barrier
    assert accesses(w1) == [(7, False), (10, False)]


def test_load_kernel_flushes_l1():
    sm = make_sm()
    sm.l1.access(5, False)
    sm.load_kernel([([1], [False])], 1, 4.0, now=0.0)
    assert sm.l1.occupancy() == 0


def test_gap_cycles_from_arithmetic_intensity():
    sm = make_sm()
    sm.load_kernel([([1], [False])], 1, instrs_per_access=8.0, now=0.0)
    assert sm.gap_cycles == pytest.approx(8.0 / 2)  # 2 schedulers per SM


def test_drained_tracks_live_and_mshr():
    sm = make_sm()
    sm.load_kernel([([1, 2], [False, False])], 1, 4.0, now=0.0)
    assert not sm.drained
    sm.retire_access()
    sm.retire_access()
    assert sm.drained
    sm.mshr.allocate(1, 0.0)
    assert not sm.drained


def test_wake_warps_requeues_matching_waiters():
    sm = make_sm()
    sm.load_kernel([([1, 2, 3, 4], [False] * 4)], 2, 4.0, now=0.0)
    w0 = sm.warps[0]
    sm.ready.clear()
    w0.waiting_on = 7
    sm.wake_warps(7, [w0])
    assert w0.waiting_on is None
    assert list(sm.ready) == [w0]
    # Wrong key leaves the warp parked.
    w1 = sm.warps[1]
    w1.waiting_on = 9
    sm.wake_warps(7, [w1])
    assert w1.waiting_on == 9


def test_wake_warps_skips_exhausted():
    sm = make_sm()
    sm.load_kernel([([1], [False])], 1, 4.0, now=0.0)
    w = sm.warps[0]
    w.cursor = 1
    w.waiting_on = 1
    sm.ready.clear()
    sm.wake_warps(1, [w])
    assert not sm.ready


def test_requeue_exhausted_updates_group():
    sm = make_sm()
    sm.load_kernel([([1, 2], [False, False])], 2, 4.0, now=0.0,
                   barrier_interval=1)
    w0, w1 = sm.warps
    group = w0.group
    assert group.live == 2
    assert accesses(w0) == [(1, False)]
    w0.cursor += w0.stride  # past its one access: exhausted
    assert w0.exhausted
    sm.ready.clear()
    sm.requeue(w0)
    assert group.live == 1


def test_barrier_group_release():
    group = CTAGroup(interval=2, size=2)
    ready = []
    a = WarpContext([1, 2, 3, 4], [False] * 4, group)
    b = WarpContext([5, 6, 7, 8], [False] * 4, group)
    # a arrives first: parked.
    group.arrived += 1
    group.parked.append(a)
    group.release_if_complete(ready)
    assert not ready
    # b arrives: all live warps arrived -> release.
    group.arrived += 1
    group.release_if_complete(ready)
    assert ready == [a]


def test_barrier_exhaust_releases_stragglers():
    group = CTAGroup(interval=2, size=2)
    ready = []
    a = WarpContext([1, 2, 3, 4], [False] * 4, group)
    group.arrived = 1
    group.parked = [a]
    group.on_exhaust(ready)   # the other warp finished its stream
    assert ready == [a]
    assert group.live == 1


def test_at_barrier_property():
    group = CTAGroup(interval=2, size=1)
    w = WarpContext([1, 2, 3, 4, 5, 6], [False] * 6, group)
    assert not w.at_barrier
    w.cursor = 2
    assert w.at_barrier
    w.next_barrier = 4
    assert not w.at_barrier
    w.cursor = 4
    assert w.at_barrier
    # An exhausted warp never reports a pending barrier.
    w.cursor = 6
    assert not w.at_barrier


def test_no_barrier_group():
    w = WarpContext([1, 2], [False, False], None)
    assert w.next_barrier is None
    assert not w.at_barrier


def test_bypass_range():
    sm = make_sm()
    sm.load_kernel([([1], [False])], 1, 4.0, 0.0,
                   l1_bypass_lo=100, l1_bypass_hi=200)
    assert sm.bypasses_l1(100)
    assert sm.bypasses_l1(199)
    assert not sm.bypasses_l1(99)
    assert not sm.bypasses_l1(200)


def test_stall_until_monotone():
    sm = make_sm()
    sm.load_kernel([([1], [False])], 1, 4.0, now=0.0)
    sm.stall_until(50.0)
    assert sm.next_issue_time == 50.0
    sm.stall_until(20.0)
    assert sm.next_issue_time == 50.0


def test_load_kernel_validates_warps():
    sm = make_sm()
    with pytest.raises(ValueError):
        sm.load_kernel([([1], [False])], 0, 4.0, now=0.0)
