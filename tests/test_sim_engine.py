"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def _noop(_):
    return None


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule_call(5.0, fired.append, 5)
    eng.schedule_call(1.0, fired.append, 1)
    eng.schedule_call(3.0, fired.append, 3)
    eng.run()
    assert fired == [1, 3, 5]
    assert eng.now == 5.0


def test_same_time_events_fire_fifo():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule_call(2.0, fired.append, i)
    eng.run()
    assert fired == list(range(10))


def test_cannot_schedule_in_past():
    eng = Engine()
    eng.schedule_call(10.0, _noop, None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_call(5.0, _noop, None)


def test_schedule_after_uses_relative_delay():
    # A relative delay is `now + delay`, taken inside the running callback.
    eng = Engine()
    times = []

    def later(_):
        eng.schedule_call(eng.now + 5.0, lambda _: times.append(eng.now),
                          None)

    eng.schedule_call(10.0, later, None)
    eng.run()
    assert times == [15.0]


def test_schedule_after_call_uses_relative_delay():
    # The same delay handed back as a continuation fires at the same time.
    eng = Engine()
    times = []

    def later(_):
        return (eng.now + 5.0, times.append, "follow")

    eng.schedule_call(10.0, later, None)
    eng.run()
    assert times == ["follow"]
    assert eng.now == 15.0


def test_negative_delay_rejected():
    # Mid-run, `now + delay` with a negative delay is refused and leaves
    # the queue as it was; a zero delay fires at the current instant.
    eng = Engine()
    fired = []

    def try_delays(_):
        with pytest.raises(ValueError):
            eng.schedule_call(eng.now + -1.0, fired.append, "early")
        assert eng.pending == 1  # only the running entry
        eng.schedule_call(eng.now + 0.0, fired.append, "now")

    eng.schedule_call(10.0, try_delays, None)
    eng.run()
    assert fired == ["now"]
    assert eng.now == 10.0
    assert eng.events_processed == 2


def test_cancelled_events_are_skipped():
    eng = Engine()
    fired = []
    seq = eng.schedule_call(1.0, fired.append, "a")
    eng.schedule_call(2.0, fired.append, "b")
    eng.cancel([seq])
    eng.run()
    assert fired == ["b"]
    assert eng.drained()
    assert eng.events_processed == 1
    # A cancelled entry never moves the clock.
    assert eng.now == 2.0


def test_events_scheduled_during_run_fire():
    eng = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            eng.schedule_call(eng.now + 1.0, chain, depth + 1)

    eng.schedule_call(0.0, chain, 0)
    eng.run()
    assert fired == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule_call(float(i), _noop, None)
    eng.run()
    assert eng.events_processed == 7


def test_pending_tracks_cancellations_without_scanning():
    # pending is the queue length: cancel removes entries at once, so
    # nothing dead is ever left in the heap to count around.
    eng = Engine()
    seqs = [eng.schedule_call(float(i + 1), _noop, None) for i in range(10)]
    assert eng.pending == 10
    eng.cancel(seqs[:4])
    assert eng.pending == 6
    eng.cancel(seqs[:1])  # double-cancel must not double-count
    assert eng.pending == 6


def test_cancelling_a_fired_event_is_a_noop():
    eng = Engine()
    fired = []
    first = eng.schedule_call(1.0, fired.append, "first")

    def late(_):
        eng.cancel([first])  # already fired: nothing to withdraw
        fired.append(eng.pending)

    eng.schedule_call(2.0, late, None)
    eng.schedule_call(3.0, fired.append, "keeper")
    eng.run()
    assert fired == ["first", 2, "keeper"]  # 2: itself and the keeper
    assert eng.drained()


def test_heap_compacts_when_cancelled_events_dominate():
    # Cancellation rebuilds the heap without the dead entries, in place.
    eng = Engine()
    heap = eng._heap
    seqs = [eng.schedule_call(float(i + 1), _noop, None) for i in range(128)]
    eng.cancel(seqs[:65])
    assert eng._heap is heap
    assert len(heap) == 63
    assert sorted(entry[1] for entry in heap) == seqs[65:]
    eng.run()
    assert eng.events_processed == 63
    assert eng.drained()


def test_cancellation_during_run_keeps_order_and_counts():
    eng = Engine()
    fired = []
    later = [eng.schedule_call(float(10 + i), fired.append, i)
             for i in range(6)]
    eng.schedule_call(1.0, lambda _: eng.cancel(later[::2]), None)
    eng.run()
    assert fired == [1, 3, 5]
    assert eng.events_processed == 4
    assert eng.drained()


def test_bulk_cancel_during_run_compacts_and_pending_stays_nonnegative():
    # A callback cancels most future entries while run() is mid-flight,
    # holding its reference to the heap list: the running entry stays the
    # root, the survivors fire in order, and the count ends at zero.
    eng = Engine()
    fired = []
    n = 256
    later = [eng.schedule_call(float(10 + i), fired.append, i)
             for i in range(n)]
    pending_samples = []
    roots = []

    def cancel_most(_):
        eng.cancel(later[:192])
        roots.append(eng._heap[0][2])
        pending_samples.append(eng.pending)

    eng.schedule_call(1.0, cancel_most, None)
    eng.schedule_call(5.0, lambda _: pending_samples.append(eng.pending),
                      None)
    eng.run()
    assert roots == [cancel_most]
    assert fired == list(range(192, n))
    # +1: the running canceller, +1: the t=5 sampler event.
    assert pending_samples == [n - 192 + 2, n - 192 + 1]
    assert eng.pending == 0
    assert eng.drained()


def test_schedule_call_fires_with_argument():
    eng = Engine()
    got = []
    eng.schedule_call(2.0, got.append, "payload")
    eng.run()
    assert got == ["payload"]
    assert eng.events_processed == 1


def test_schedule_call_returns_fifo_seqs():
    # schedule_call hands back the seq it drew; schedule_batch and
    # continuations draw from the same counter.
    eng = Engine()
    assert eng.schedule_call(3.0, _noop, None) == 0
    eng.schedule_batch([(3.0, _noop, None), (3.0, _noop, None)])
    assert eng.schedule_call(1.0, _noop, None) == 3
    assert [entry[1] for entry in sorted(eng._heap)] == [3, 0, 1, 2]


def test_schedule_call_rejects_past_and_negative_delay():
    eng = Engine()
    eng.schedule_call(10.0, _noop, None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_call(5.0, print, None)
    with pytest.raises(ValueError):  # a delay turned into `now + delay`
        eng.schedule_call(eng.now + -1.0, print, None)
    assert eng.drained()


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
    eng.schedule_call(1.0, _noop, None)
    eng.run()  # now == 1.0
    with pytest.raises(ValueError):
        eng.schedule_batch([(2.0, _noop, None),
                            (0.5, _noop, None)])
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


@pytest.mark.parametrize("doomed_at", [None, 100.0])
def test_dispatching_names_the_running_event(doomed_at):
    # A plain entry, one that cancels another and a returned continuation
    # each see their own (time, seq) at the heap root while they run; the
    # batch tier orders its parked wakes against it.  A cancelled entry,
    # even one later than everything else, never runs nor moves the clock.
    eng = Engine()
    seen = []

    def note(_=None):
        seen.append(eng._heap[0][:2])

    def cancel_then_note(_):
        eng.cancel(doomed)
        note()

    def chain(_):
        note()
        return (4.0, note, None)

    eng.schedule_call(1.0, cancel_then_note, None)  # seq 0
    eng.schedule_call(2.0, note, None)              # seq 1
    eng.schedule_call(2.0, chain, None)             # seq 2
    doomed = ([] if doomed_at is None
              else [eng.schedule_call(doomed_at, note, None)])  # seq 3
    eng.run()
    # The continuation draws the next seq when chain returns.
    follow = 3 + len(doomed)
    assert seen == [(1.0, 0), (2.0, 1), (2.0, 2), (4.0, follow)]
    assert eng.now == 4.0
    assert eng.drained()
