"""Event queue and simulation loop.

Time is measured in GPU core cycles as a float (servers can hand out
sub-cycle completion times when modelling fractional bandwidth), but events
fire in strictly nondecreasing time order, with FIFO ordering among events
scheduled for the same instant.

Hot-path design
---------------
The heap stores plain ``(time, seq, fn, arg)`` tuples, one shape for every
entry, so every sift during push/pop compares floats and ints at C speed
instead of calling a Python ``__lt__`` (``seq`` is unique per engine, so
comparison never reaches the later elements).  :meth:`Engine.schedule_call`
queues ``fn(arg)`` with **no per-event allocation beyond the heap tuple**
and returns the ``seq`` it drew; the request pipeline in
:mod:`repro.gpu.system` schedules one of these per queue boundary, so an
L1 miss costs zero closures.  The few entries that may be withdrawn (the
mode controllers' epoch and profiling timers, see
:mod:`repro.core.controller`) are removed by :meth:`Engine.cancel` under
the seqs they drew.

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

The running entry is therefore always ``_heap[0]`` while its callback
runs, which is how the batch tier orders a wake it holds back from the
queue against the event that settles it.
"""

# repro: hot-path
from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable


class Engine:
    """Discrete-event simulation engine: a time-ordered event heap.

    Every simulated component schedules callbacks on one shared engine;
    ``now`` is the single source of simulation time.

    Attributes:
        now: current simulation time in GPU core cycles (float; servers
            hand out sub-cycle completion times).

    Usage::

        eng = Engine()
        eng.schedule_call(10.0, print, "fired")
        eng.run()
    """

    __slots__ = ("now", "_heap", "_seq", "_events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap entries: (time, seq, fn, arg).
        self._heap: list[tuple] = []
        self._seq = 0
        self._events_processed = 0

    # ------------------------------------------------------------ schedule
    def schedule_call(self, time: float, fn: Callable[[Any], Any],
                      arg: Any) -> int:
        """Schedule ``fn(arg)`` at absolute ``time``.

        Args:
            time: absolute firing time; must be >= ``now``.
            fn: one-argument callback (typically a bound stage method).
            arg: payload handed to ``fn`` (typically a pipeline request).

        Returns:
            The entry's sequence number (keep it to :meth:`cancel`).

        Raises:
            ValueError: if ``time`` lies in the past.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, arg))
        return seq

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
            push(heap, (time, seq, fn, arg))
            seq += 1
        self._seq = seq

    # repro: cold
    def cancel(self, seqs: Iterable[int]) -> None:
        """Withdraw the queued entries drawn under ``seqs``.

        Seqs of entries that already fired are ignored.  A callback may
        cancel, but never its own (running) entry.  The heap is rebuilt
        in place, since the batch tier holds the list itself; the running
        entry, the minimum, stays at its root.
        """
        dead = set(seqs)
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[1] not in dead]
        heapq.heapify(heap)

    # ----------------------------------------------------------------- run
    def run(self) -> None:
        """Process events until the queue drains; ``now`` ends at the time
        of the last one."""
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
            time, _seq, fn, arg = heap[0]
            self.now = time
            res = fn(arg)
            if res is None:
                pop(heap)
            else:
                seq = self._seq
                self._seq = seq + 1
                replace(heap, (res[0], seq, res[1], res[2]))
            processed += 1
        self._events_processed += processed

    @property
    def pending(self) -> int:
        """Number of entries still queued."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events fired over the engine's lifetime (all runs)."""
        return self._events_processed

    def drained(self) -> bool:
        """True when no entries remain."""
        return not self._heap
