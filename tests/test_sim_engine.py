"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(5.0, lambda: fired.append(5))
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(3.0, lambda: fired.append(3))
    eng.run()
    assert fired == [1, 3, 5]
    assert eng.now == 5.0


def test_same_time_events_fire_fifo():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule(2.0, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(10))


def test_schedule_after_uses_relative_delay():
    eng = Engine()
    times = []
    eng.schedule(10.0, lambda: eng.schedule_after(5.0, lambda: times.append(eng.now)))
    eng.run()
    assert times == [15.0]


def test_cannot_schedule_in_past():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule(5.0, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule_after(-1.0, lambda: None)


def test_until_horizon_stops_and_advances_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(100.0, lambda: fired.append(100))
    eng.run(until=50.0)
    assert fired == [1]
    assert eng.now == 50.0
    assert eng.pending == 1
    eng.run()
    assert fired == [1, 100]


def test_until_beyond_last_event_advances_clock():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run(until=500.0)
    assert eng.now == 500.0


def test_cancelled_events_are_skipped():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(2.0, lambda: fired.append("b"))
    ev.cancel()
    eng.run()
    assert fired == ["b"]
    assert eng.drained()


def test_events_scheduled_during_run_fire():
    eng = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            eng.schedule_after(1.0, lambda: chain(depth + 1))

    eng.schedule(0.0, lambda: chain(0))
    eng.run()
    assert fired == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_max_events_limits_processing():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule(float(i), lambda i=i: fired.append(i))
    eng.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert eng.pending == 6


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_processed == 7


def test_pending_tracks_cancellations_without_scanning():
    eng = Engine()
    events = [eng.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert eng.pending == 10
    for ev in events[:4]:
        ev.cancel()
    assert eng.pending == 6
    events[0].cancel()  # double-cancel must not double-count
    assert eng.pending == 6


def test_cancelling_a_fired_event_is_a_noop():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    keeper = eng.schedule(2.0, lambda: None)
    eng.run(until=1.5)
    ev.cancel()  # already fired: accounting must not change
    assert eng.pending == 1
    keeper.cancel()
    assert eng.pending == 0
    assert eng.drained()


def test_heap_compacts_when_cancelled_events_dominate():
    eng = Engine()
    threshold = Engine.COMPACT_MIN_CANCELLED
    events = [eng.schedule(float(i + 1), lambda: None)
              for i in range(2 * threshold)]
    for ev in events[: threshold + 1]:
        ev.cancel()
    # dead events now dominate: the heap must have been rebuilt without them
    assert len(eng._heap) == threshold - 1
    assert eng.pending == threshold - 1
    eng.run()
    assert eng.events_processed == threshold - 1
    assert eng.drained()


def test_cancellation_during_run_keeps_order_and_counts():
    eng = Engine()
    fired = []
    later = [eng.schedule(float(10 + i), lambda i=i: fired.append(i))
             for i in range(6)]

    def cancel_some():
        for ev in later[::2]:
            ev.cancel()

    eng.schedule(1.0, cancel_some)
    eng.run()
    assert fired == [1, 3, 5]
    assert eng.drained()


def test_bulk_cancel_during_run_compacts_and_pending_stays_nonnegative():
    # A callback cancels enough future events to trigger heap compaction
    # while run() is mid-flight holding its reference to the heap list; the
    # live-event accounting must never go negative and must end drained.
    eng = Engine()
    fired = []
    n = 4 * Engine.COMPACT_MIN_CANCELLED
    later = [eng.schedule(float(10 + i), lambda i=i: fired.append(i))
             for i in range(n)]
    pending_samples = []

    def cancel_most():
        for ev in later[: 3 * Engine.COMPACT_MIN_CANCELLED]:
            ev.cancel()
        pending_samples.append(eng.pending)

    eng.schedule(1.0, cancel_most)
    eng.schedule(5.0, lambda: pending_samples.append(eng.pending))
    eng.run()
    survivors = n - 3 * Engine.COMPACT_MIN_CANCELLED
    assert fired == list(range(n - survivors, n))
    assert all(p >= 0 for p in pending_samples)
    assert pending_samples[0] == survivors + 1  # +1: the t=5 sampler event
    assert eng.pending == 0
    assert eng.drained()


def test_schedule_call_fires_with_argument():
    eng = Engine()
    got = []
    eng.schedule_call(2.0, got.append, "payload")
    eng.run()
    assert got == ["payload"]
    assert eng.events_processed == 1


def test_schedule_call_and_schedule_share_fifo_order():
    # Both scheduling flavours draw from one sequence counter, so
    # same-instant events fire in exact submission order.
    eng = Engine()
    fired = []
    eng.schedule_call(3.0, fired.append, "a")
    eng.schedule(3.0, lambda: fired.append("b"))
    eng.schedule_call(3.0, fired.append, "c")
    eng.schedule(3.0, lambda: fired.append("d"))
    eng.run()
    assert fired == ["a", "b", "c", "d"]


def test_schedule_call_respects_horizon_and_budget():
    eng = Engine()
    fired = []
    for i in range(6):
        eng.schedule_call(float(i), fired.append, i)
    eng.run(max_events=2)
    assert fired == [0, 1]
    eng.run(until=3.5)
    assert fired == [0, 1, 2, 3]
    assert eng.now == 3.5
    assert eng.pending == 2


def test_schedule_call_rejects_past_and_negative_delay():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_call(5.0, print, None)
    with pytest.raises(ValueError):
        eng.schedule_after_call(-1.0, print, None)


def test_schedule_after_call_uses_relative_delay():
    eng = Engine()
    times = []
    eng.schedule_call(
        10.0, lambda _: eng.schedule_after_call(
            5.0, lambda _: times.append(eng.now), None), None)
    eng.run()
    assert times == [15.0]


# ------------------------------------------------------- schedule_batch
def test_schedule_batch_preserves_fifo_with_schedule_call():
    eng = Engine()
    order = []
    eng.schedule_call(5.0, order.append, "call-first")
    eng.schedule_batch([(5.0, order.append, "batch-0"),
                        (5.0, order.append, "batch-1"),
                        (5.0, order.append, "batch-2")])
    eng.schedule_call(5.0, order.append, "call-last")
    eng.run()
    assert order == ["call-first", "batch-0", "batch-1", "batch-2",
                     "call-last"]


def test_schedule_batch_rejects_past_times_keeping_valid_prefix():
    eng = Engine()
    eng.schedule_call(1.0, lambda _: None, None)
    eng.run()  # now == 1.0
    with pytest.raises(ValueError):
        eng.schedule_batch([(2.0, lambda _: None, None),
                            (0.5, lambda _: None, None)])
    # Documented: items before the offender are already queued, and the
    # sequence counter was rolled back so FIFO stays consistent.
    assert eng.pending == 1
    eng.run()
    assert eng.now == 2.0


# -------------------------------------------------- continuation protocol
def test_callback_continuation_fires_like_a_scheduled_call():
    eng = Engine()
    order = []

    def first(arg):
        order.append(("first", arg, eng.now))
        return (3.0, lambda a: order.append(("follow", a, eng.now)), 42)

    eng.schedule_call(1.0, first, "x")
    eng.run()
    assert order == [("first", "x", 1.0), ("follow", 42, 3.0)]
    assert eng.now == 3.0
    assert eng.events_processed == 2


def _followup_order(style):
    """Two callbacks fire at t=1; 'a' requests a follow-up at t=2 either by
    returning a continuation or by an explicit trailing schedule_call."""
    eng = Engine()
    order = []

    def a(_):
        order.append("a")
        if style == "continuation":
            return (2.0, order.append, "a-follow")
        eng.schedule_call(2.0, order.append, "a-follow")
        return None

    def b(_):
        order.append("b")
        eng.schedule_call(2.0, order.append, "b-follow")

    eng.schedule_call(1.0, a, None)
    eng.schedule_call(1.0, b, None)
    eng.run()
    return order


def test_continuation_is_fifo_interchangeable_with_schedule_call():
    # The engine hands a continuation exactly the sequence number a
    # trailing schedule_call would have drawn, so the two styles produce
    # identical firing orders — the batch tier's byte-identity
    # contract rests on this.
    assert (_followup_order("continuation")
            == _followup_order("call")
            == ["a", "b", "a-follow", "b-follow"])


def test_continuation_respects_horizon_and_budget():
    def build():
        eng = Engine()
        order = []
        eng.schedule_call(
            1.0, lambda _: order.append("first") or
            (2.0, order.append, "follow"), None)
        return eng, order

    eng, order = build()
    eng.run(max_events=1)
    assert order == ["first"] and eng.pending == 1
    eng.run()
    assert order == ["first", "follow"]

    eng, order = build()
    eng.run(until=1.5)
    assert order == ["first"] and eng.now == 1.5
    eng.run()
    assert order == ["first", "follow"] and eng.now == 2.0


@pytest.mark.parametrize("until", [None, 100.0])
def test_dispatching_names_the_running_event(until):
    # Both run loops: a schedule_call entry, an Event handle, and a
    # returned continuation each see their own (time, seq).
    eng = Engine()
    seen = []

    def note(_=None):
        seen.append(eng.dispatching())

    def chain(_):
        note()
        return (4.0, note, None)

    eng.schedule_call(1.0, note, None)       # seq 0
    eng.schedule(2.0, note)                  # seq 1
    eng.schedule_call(2.0, chain, None)      # seq 2; its continuation: 3
    eng.run(until=until)
    assert seen == [(1.0, 0), (2.0, 1), (2.0, 2), (4.0, 3)]
