"""LLC reconfiguration sequencing and cost (Section 4.1, "Dynamic
Reconfiguration").

A transition stalls the SMs, drains in-flight packets, fixes up LLC
contents, then power-gates or powers on the MC-routers:

* shared → private: write back all dirty lines (the private LLC is
  write-through, so nothing may stay dirty), keep contents (lines already
  resident in a cluster's new private slice are still valid).
* private → shared: write back, then invalidate everything (a written line
  may have stale read-only replicas in other clusters' slices, and shared
  indexing could pick a stale copy).

The write-backs start when the drain ends and take :func:`write_back`, the
one flush path, so they pay DRAM bank and bus time.  The stall is measured:
``drain_cycles`` + (last write-back retires − drain end) +
``power_gate_cycles``, exactly the two constants when nothing is dirty.
The system's transition hook sets the MC-router gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import AdaptiveConfig
from repro.core.modes import LLCMode


@dataclass(frozen=True)
class ReconfigCost:
    """Cycle cost and traffic of one transition."""

    stall_cycles: float
    dirty_lines_written: int
    lines_invalidated: int


def write_back(system, at: float) -> tuple[int, float]:
    """Clean every slice of ``system`` (``llc_slices``, ``mcs``), writing
    each dirty line at ``at`` through its slice's memory controller, slice
    ``s`` → MC ``s // slices_per_mc``.  Returns (lines, last retirement)."""
    slices_per_mc = len(system.llc_slices) // len(system.mcs)
    written, last = 0, at
    for s, sl in enumerate(system.llc_slices):
        mc = system.mcs[s // slices_per_mc]
        for key in sl.clean():
            last = max(last, mc.write(at, key))
            written += 1
    return written, last


class Reconfigurator:
    """Applies mode transitions to a GPU system's LLC slices."""

    def __init__(self, cfg: AdaptiveConfig):
        self.cfg = cfg
        self.transitions = 0
        self.total_stall_cycles = 0.0

    def transition(self, system, now: float, to_mode: LLCMode) -> ReconfigCost:
        """Switch ``system`` to ``to_mode``; returns the cost breakdown."""
        drained = now + self.cfg.drain_cycles
        written, retired = write_back(system, drained)
        private = to_mode is LLCMode.PRIVATE
        invalidated = 0
        for sl in system.llc_slices:
            if not private:
                invalidated += sl.flush()[0]
            sl.set_write_policy(write_through=private)

        stall = (self.cfg.drain_cycles + (retired - drained)
                 + self.cfg.power_gate_cycles)
        self.transitions += 1
        self.total_stall_cycles += stall
        return ReconfigCost(stall_cycles=stall,
                            dirty_lines_written=written,
                            lines_invalidated=invalidated)
