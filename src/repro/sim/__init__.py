"""Discrete-event simulation kernel.

The simulator is *event-driven and queueing-accurate* rather than
cycle-ticked: every shared hardware resource (router output port, link, LLC
tag/data port, DRAM bank, DRAM data bus) is a :class:`~repro.sim.server.BandwidthServer`
that serializes work in FIFO order, and the only heap events are SM wakeups
and response deliveries.  This keeps pure-Python simulation of an 80-SM GPU
tractable while preserving the queueing behaviour the paper's phenomenon
depends on.
"""

from repro.sim.engine import Engine, Event
from repro.sim.server import BandwidthServer, LatencyLink

__all__ = [
    "Engine",
    "Event",
    "BandwidthServer",
    "LatencyLink",
]
