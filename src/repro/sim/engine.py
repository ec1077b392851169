"""Event queue and simulation loop.

Time is measured in GPU core cycles as a float (servers can hand out
sub-cycle completion times when modelling fractional bandwidth), but events
fire in strictly nondecreasing time order, with FIFO ordering among events
scheduled for the same instant.

Hot-path design
---------------
The heap stores plain ``(time, seq, event, fn, arg)`` tuples, never
:class:`Event` objects, so every sift during push/pop compares floats and
ints at C speed instead of calling a Python ``__lt__`` (``seq`` is unique
per engine, so comparison never reaches the later elements).  Two scheduling
flavours share one FIFO sequence counter:

* :meth:`schedule` / :meth:`schedule_after` — allocate an :class:`Event`
  handle the caller can cancel (the adaptive controller bulk-cancels whole
  epochs of profiling callbacks).
* :meth:`schedule_call` / :meth:`schedule_after_call` — fire-and-forget
  ``fn(arg)`` with **no per-event allocation beyond the heap tuple**.  The
  request pipeline in :mod:`repro.gpu.system` schedules one of these per
  queue boundary, so an L1 miss costs zero closures and zero Event objects.

Continuation protocol
---------------------
A ``schedule_call`` callback may *return* a ``(time, fn, arg)`` triple
instead of calling :meth:`schedule_call` as its final action.  The engine
then assigns the next sequence number and swaps the continuation into the
heap slot the finished event occupied (``heapreplace``: one sift instead of
a pop + push).  This is safe because a firing callback can only schedule at
``time >= now`` with a strictly larger seq, so the entry being dispatched
remains the heap minimum while it runs — the loop peeks, dispatches, then
pops or replaces.  Crucially the continuation receives exactly the seq it
would have drawn from a trailing ``schedule_call``, so the two styles are
interchangeable without perturbing FIFO order; the batch execution tier
(:mod:`repro.gpu.batchpath`) relies on this to stay byte-identical with the
event tier while halving heap traffic.

Both run loops keep a ``schedule_call`` entry at the heap root while its
callback runs; an :class:`Event` is popped first and kept aside instead.
Either way :meth:`Engine.dispatching` names the running event's
``(time, seq)``, which is how the batch tier orders a wake it holds back
from the queue against the event that settles it.
"""

# repro: hot-path
from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A cancellable scheduled callback.  Cancel by calling :meth:`cancel`.

    Only :meth:`Engine.schedule`/:meth:`Engine.schedule_after` allocate
    these; the fire-and-forget ``schedule_call`` path never does.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "fired", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[[], None],
                 engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event as dead; it will be skipped when popped.

        Cancelling an event that already fired is a harmless no-op (the
        adaptive controller bulk-cancels everything it ever scheduled)."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired and self._engine is not None:
            self._engine._note_cancelled()


class Engine:
    """Discrete-event simulation engine: a time-ordered event heap.

    Every simulated component schedules callbacks on one shared engine;
    ``now`` is the single source of simulation time.  Cancelled events are
    skipped on pop and the heap self-compacts when they dominate, so bulk
    cancellation (the adaptive controller cancels whole epochs of
    profiling events) stays cheap.

    Attributes:
        now: current simulation time in GPU core cycles (float; servers
            hand out sub-cycle completion times).

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: print("fired at", eng.now))
        eng.run(until=1000.0)
    """

    #: Compaction threshold: never compact below this many cancellations
    #: (tiny heaps rebuild too often to be worth it).
    COMPACT_MIN_CANCELLED = 64

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "_cancelled",
                 "_event_key")

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries: (time, seq, Event-or-None, fn-or-None, arg).
        # Exactly one of (entry[2]) / (entry[3]) is set.
        self._heap: list[tuple] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0  # dead events still sitting in the heap
        # (time, seq) of the Event whose callback is running, None
        # otherwise (see dispatching()).
        self._event_key: Optional[tuple[float, int]] = None

    # ------------------------------------------------------------ schedule
    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute ``time``.

        Args:
            time: absolute firing time; must be >= ``now``.
            fn: zero-argument callback.

        Returns:
            The queued :class:`Event` (keep it to :meth:`Event.cancel`).

        Raises:
            ValueError: if ``time`` lies in the past.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, engine=self)
        heapq.heappush(self._heap, (time, seq, ev, None, None))
        return ev

    def schedule_call(self, time: float, fn: Callable[[Any], None],
                      arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute ``time`` — the zero-allocation
        fast path (no :class:`Event` handle, so no cancellation).

        FIFO ordering with :meth:`schedule` is preserved: both flavours draw
        from the same sequence counter.

        Args:
            time: absolute firing time; must be >= ``now``.
            fn: one-argument callback (typically a bound stage method).
            arg: payload handed to ``fn`` (typically a pipeline request).

        Raises:
            ValueError: if ``time`` lies in the past.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, None, fn, arg))

    def schedule_batch(self, items) -> None:
        """Schedule many ``(time, fn, arg)`` triples with consecutive FIFO
        sequence numbers — one bulk push instead of N :meth:`schedule_call`
        calls (kernel launch wakes every SM through this).

        Args:
            items: iterable of ``(time, fn, arg)`` triples; every ``time``
                must be >= ``now``.

        Raises:
            ValueError: if any ``time`` lies in the past (items before the
                offender are already queued).
        """
        now = self.now
        seq = self._seq
        heap = self._heap
        push = heapq.heappush
        for time, fn, arg in items:
            if time < now:
                self._seq = seq
                raise ValueError(
                    f"cannot schedule in the past ({time} < {now})")
            push(heap, (time, seq, None, fn, arg))
            seq += 1
        self._seq = seq

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        Args:
            delay: non-negative offset from ``now``.
            fn: zero-argument callback.

        Returns:
            The queued :class:`Event`.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn)

    def schedule_after_call(self, delay: float, fn: Callable[[Any], None],
                            arg: Any) -> None:
        """Relative-delay variant of :meth:`schedule_call`.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_call(self.now + delay, fn, arg)

    # -------------------------------------------------------- cancellation
    def _note_cancelled(self) -> None:
        """A queued event was cancelled.  When dead events dominate the heap
        (long adaptive runs cancel whole epochs of profiling events), compact
        it so they don't accumulate for the rest of the run."""
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    # repro: cold
    def _compact(self) -> None:
        """Drop cancelled events and restore the heap invariant.

        In place: :meth:`run` holds a local reference to the heap list while
        event callbacks (which may cancel events) are executing.
        """
        live = [entry for entry in self._heap
                if entry[2] is None or not entry[2].cancelled]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    # ----------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains or a limit is hit.

        Args:
            until: stop (and advance ``now`` to this horizon) before firing
                any event scheduled later than it.
            max_events: fire at most this many events in this call.

        ``self.now`` advances to the time of the last processed event (or
        ``until`` when the horizon cuts first).
        """
        if until is None and max_events is None:
            self._run_fast()
            return
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        processed = 0
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev is not None and ev.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if until is not None and entry[0] > until:
                self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            self.now = entry[0]
            if ev is not None:
                pop(heap)
                ev.fired = True
                self._event_key = (entry[0], entry[1])
                try:
                    ev.fn()
                finally:
                    self._event_key = None
            else:
                # Peek-run-replace, as in _run_fast.
                res = entry[3](entry[4])
                if res is None:
                    pop(heap)
                else:
                    seq = self._seq
                    self._seq = seq + 1
                    replace(heap, (res[0], seq, None, res[1], res[2]))
            processed += 1
        else:
            if until is not None and until > self.now:
                self.now = until
        self._events_processed += processed

    def _run_fast(self) -> None:
        """Drain the whole queue with no horizon/budget checks per pop.

        The common case — :meth:`repro.gpu.system.GPUSystem.run` without a
        cycle cap — pays neither the ``until``/``max_events`` comparisons
        nor a heap peek per event.
        """
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        processed = 0
        while heap:
            # Peek-run-replace: the entry being dispatched stays the heap
            # minimum while its callback runs (anything it schedules lands
            # at time >= now with a larger seq), so we defer the pop and —
            # when the callback returns a (time, fn, arg) continuation —
            # swap it into the same slot with one sift.
            time, _seq, ev, fn, arg = heap[0]
            if ev is None:
                self.now = time
                res = fn(arg)
                if res is None:
                    pop(heap)
                else:
                    seq = self._seq
                    self._seq = seq + 1
                    replace(heap, (res[0], seq, None, res[1], res[2]))
                processed += 1
            elif not ev.cancelled:
                # Event handles can be cancelled (even from their own
                # callback, which may also trigger a compaction), so this
                # branch pops before dispatching, as a pre-continuation
                # engine would.
                pop(heap)
                ev.fired = True
                self.now = time
                self._event_key = (time, _seq)
                try:
                    ev.fn()
                finally:
                    self._event_key = None
                processed += 1
            else:
                pop(heap)
                self._cancelled -= 1
        self._events_processed += processed

    def dispatching(self) -> tuple[float, int]:
        """``(time, seq)`` of the event whose callback is running.

        Only meaningful inside a callback: a ``schedule_call`` entry is
        still the heap root there, and an :class:`Event`'s key is kept
        aside while it runs."""
        key = self._event_key
        if key is None:
            entry = self._heap[0]
            return entry[0], entry[1]
        return key

    @property
    def pending(self) -> int:
        """Number of live events still queued (O(1): the engine tracks how
        many cancelled events are still parked in the heap)."""
        return len(self._heap) - self._cancelled

    @property
    def events_processed(self) -> int:
        """Total events fired over the engine's lifetime (all runs)."""
        return self._events_processed

    def drained(self) -> bool:
        """True when no live events remain."""
        return self.pending == 0
