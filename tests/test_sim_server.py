"""Tests for bandwidth servers and links — the queueing substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.server import BandwidthServer, LatencyLink


def test_idle_server_serves_immediately():
    s = BandwidthServer("port")
    assert s.enqueue(now=10.0, occupancy=4.0) == 14.0


def test_busy_server_queues_fifo():
    s = BandwidthServer("port")
    t1 = s.enqueue(0.0, 4.0)
    t2 = s.enqueue(1.0, 4.0)  # arrives while busy -> waits
    t3 = s.enqueue(9.0, 4.0)  # arrives right after t2 ends... t2=8
    assert t1 == 4.0
    assert t2 == 8.0
    assert t3 == 13.0


def test_queue_delay_reflects_backlog():
    s = BandwidthServer()
    s.enqueue(0.0, 10.0)
    assert s.queue_delay(3.0) == 7.0
    assert s.queue_delay(20.0) == 0.0


def test_zero_occupancy_passes_through():
    s = BandwidthServer()
    assert s.enqueue(5.0, 0.0) == 5.0


def test_negative_occupancy_rejected():
    s = BandwidthServer()
    with pytest.raises(ValueError):
        s.enqueue(0.0, -1.0)


def test_utilization_lifetime():
    s = BandwidthServer()
    s.enqueue(0.0, 25.0)
    assert s.utilization(100.0) == pytest.approx(0.25)
    assert s.utilization(0.0) == 0.0


def test_window_utilization_resets():
    s = BandwidthServer()
    s.enqueue(0.0, 50.0)
    s.reset_window(100.0)
    s.enqueue(100.0, 10.0)
    assert s.window_utilization(200.0) == pytest.approx(0.10)


def test_reset_clears_state():
    s = BandwidthServer()
    s.enqueue(0.0, 5.0)
    s.reset()
    assert s.busy_until == 0.0
    assert s.jobs == 0
    assert s.enqueue(0.0, 1.0) == 1.0


@given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 100)), min_size=1, max_size=50))
def test_completions_monotone_under_sorted_arrivals(jobs):
    """Completion times never decrease when arrivals are time-sorted (FIFO)."""
    jobs = sorted(jobs, key=lambda j: j[0])
    s = BandwidthServer()
    last = -1.0
    for arrival, occ in jobs:
        done = s.enqueue(arrival, occ)
        assert done >= arrival
        assert done >= last
        last = done


@given(st.lists(st.floats(0.1, 10), min_size=1, max_size=40))
def test_busy_cycles_equals_total_occupancy(occupancies):
    s = BandwidthServer()
    for occ in occupancies:
        s.enqueue(0.0, occ)
    assert s.busy_cycles == pytest.approx(sum(occupancies))


def test_back_to_back_saturation():
    """A server fed faster than it drains serializes exactly."""
    s = BandwidthServer()
    completions = [s.enqueue(0.0, 4.0) for _ in range(10)]
    assert completions == [4.0 * (i + 1) for i in range(10)]


def test_latency_link_adds_propagation_delay():
    link = LatencyLink("long", latency=8.0)
    # 4 flits serialize over 4 cycles, then 8 cycles of wire latency.
    assert link.traverse(0.0, 4) == 12.0
    # Second message queues behind the first at the serialization point.
    assert link.traverse(0.0, 4) == 16.0
    assert link.jobs == 2


# ------------------------------------------------- hot-path shape pins
def test_rejected_enqueue_mutates_nothing():
    # The validity guard precedes every state update, so a rejected job
    # cannot leave the server half-claimed.
    s = BandwidthServer()
    s.enqueue(0.0, 2.0)
    snapshot = (s.busy_until, s.busy_cycles, s.jobs)
    with pytest.raises(ValueError):
        s.enqueue(1.0, -0.5)
    assert (s.busy_until, s.busy_cycles, s.jobs) == snapshot


def test_enqueue_carries_no_window_bookkeeping():
    """Structural pin for the hot path: window statistics are derived
    lazily from ``busy_cycles`` snapshots (``reset_window`` /
    ``window_utilization``), never accumulated inside ``enqueue``.  The
    batch tier inlines this exact body into its stage handlers, so a
    reintroduced per-job window update would silently fork the two
    tiers' stat semantics as well as slow the hot path."""
    code = BandwidthServer.enqueue.__code__
    touched = set(code.co_names)
    assert "_window_mark" not in touched
    assert "_window_start" not in touched


def test_enqueue_microbench_floor():
    """Throughput smoke: ~40x headroom below the slowest observed box so
    it only trips on a pathological slow path (e.g. per-job window
    bookkeeping creeping back in), never on CI noise."""
    import time

    s = BandwidthServer()
    n = 100_000
    enqueue = s.enqueue
    t0 = time.perf_counter()
    for i in range(n):
        enqueue(float(i), 1.5)
    wall = time.perf_counter() - t0
    assert s.jobs == n
    assert wall < 2.0, f"{n} enqueues took {wall:.2f}s"
