"""Discrete-event simulation kernel.

The simulator is *event-driven and queueing-accurate* rather than
cycle-ticked: every shared hardware resource (router output port, link, LLC
tag/data port, DRAM bank, DRAM data bus) is a :class:`~repro.sim.server.BandwidthServer`
that serializes work in FIFO order, and the only heap events are SM wakeups
and response deliveries.  This keeps pure-Python simulation of an 80-SM GPU
tractable while preserving the queueing behaviour the paper's phenomenon
depends on.

The package re-exports nothing, so the figure drivers can read
:mod:`repro.sim.stats` without loading the engine
(:mod:`repro.sim.engine`) or the servers (:mod:`repro.sim.server`).
"""
