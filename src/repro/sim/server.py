"""Bandwidth servers: the queueing primitive of the simulator.

A :class:`BandwidthServer` models a pipelined hardware resource that can
accept at most one unit of work per ``1/rate`` cycles (e.g. a router output
port forwarding one flit per cycle, an LLC data port supplying one flit per
cycle, a DRAM data bus moving ``channel_bytes`` per cycle).  Work submitted
while the resource is busy queues in FIFO order; the server returns the
*completion time* so callers can thread a packet through a chain of servers
without scheduling intermediate events.

This "enqueue returns completion time" style is the core trick that makes an
80-SM GPU simulatable in pure Python: one heap event per request round trip,
O(1) arithmetic per hop.  The batch execution tier
(:mod:`repro.gpu.batchpath`) leans on it even harder, inlining the
``enqueue`` arithmetic into straight-line stage handlers — which is why the
method body below is kept branch-minimal: one validity check, three state
updates, no window bookkeeping (windows are derived lazily from
``busy_cycles`` snapshots instead of being accumulated per job).
"""

# repro: hot-path
from __future__ import annotations


class BandwidthServer:
    """FIFO resource with a service time per job and optional pipelining.

    ``occupancy(job)`` cycles of the resource are consumed per job; the
    *latency* through the resource can be larger than its occupancy (a
    pipelined router holds a flit slot for 1 cycle but takes 4 cycles of
    pipeline delay), which callers add separately.
    """

    __slots__ = ("name", "busy_until", "busy_cycles", "jobs", "_window_start",
                 "_window_mark")

    def __init__(self, name: str = ""):
        self.name = name
        self.busy_until: float = 0.0
        self.busy_cycles: float = 0.0
        self.jobs: int = 0
        self._window_start: float = 0.0
        #: ``busy_cycles`` snapshot at the last :meth:`reset_window`; the
        #: window's busy time is derived as ``busy_cycles - _window_mark``
        #: so the hot enqueue path never maintains a second accumulator.
        self._window_mark: float = 0.0

    def enqueue(self, now: float, occupancy: float) -> float:
        """Submit a job arriving at ``now`` that occupies the resource for
        ``occupancy`` cycles.  Returns the time the job *finishes* occupying
        the resource (its exit time, excluding any extra pipeline latency).

        This is the hottest method in the simulator (~a quarter-million
        calls per medium bench run), so it carries exactly one guard branch
        and no window-stat updates; anything slow lives behind the guard.
        """
        if occupancy < 0.0:
            raise ValueError(f"negative occupancy {occupancy}")
        busy = self.busy_until
        done = (busy if busy > now else now) + occupancy
        self.busy_until = done
        self.busy_cycles += occupancy
        self.jobs += 1
        return done

    def queue_delay(self, now: float) -> float:
        """Cycles a job arriving now would wait before starting service."""
        return max(0.0, self.busy_until - now)

    # -------------------------------------------------------------- stats
    def utilization(self, now: float) -> float:
        """Lifetime utilization in [0, 1] (busy cycles / elapsed cycles)."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / now)

    def window_utilization(self, now: float) -> float:
        """Utilization since the last :meth:`reset_window` call."""
        span = now - self._window_start
        if span <= 0:
            return 0.0
        return min(1.0, (self.busy_cycles - self._window_mark) / span)

    def reset_window(self, now: float) -> None:
        self._window_start = now
        self._window_mark = self.busy_cycles

    def reset(self) -> None:
        """Clear all state (used when power-gating then re-enabling)."""
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.jobs = 0
        self._window_start = 0.0
        self._window_mark = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BandwidthServer({self.name!r}, busy_until={self.busy_until:.1f}, jobs={self.jobs})"


class LatencyLink:
    """A fixed-latency, bandwidth-limited wire.

    Combines a :class:`BandwidthServer` (serialization at the channel width)
    with a propagation latency.  ``traverse`` returns the time the *tail* of
    the message exits the far end.
    """

    __slots__ = ("server", "latency")

    def __init__(self, name: str, latency: float):
        self.server = BandwidthServer(name)
        self.latency = latency

    def traverse(self, now: float, flits: int) -> float:
        """Send ``flits`` flits at ``now``; returns arrival time of the tail
        flit at the downstream component."""
        exit_time = self.server.enqueue(now, float(flits))
        return exit_time + self.latency

    @property
    def jobs(self) -> int:
        return self.server.jobs
