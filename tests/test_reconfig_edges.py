"""Reconfigurator edge cases: zero-dirty transitions, back-to-back mode
flips, the measured write-back stall, and where flushed lines land."""

import pytest

from repro.config import AdaptiveConfig
from repro.core.modes import LLCMode
from repro.core.reconfig import Reconfigurator
from repro.cache.llc_slice import LLCSlice

#: Cycles one stub write occupies its memory controller.
WRITE_CYCLES = 4.0


class _MC:
    """Records every write; writes serialize, ``WRITE_CYCLES`` apiece."""

    def __init__(self):
        self.writes = []
        self.busy_until = 0.0

    def write(self, at, key):
        self.writes.append((at, key))
        self.busy_until = max(self.busy_until, at) + WRITE_CYCLES
        return self.busy_until


class _System:
    """The minimal surface Reconfigurator.transition touches."""

    def __init__(self, num_slices=4, num_mcs=2):
        self.llc_slices = [
            LLCSlice(slice_id=i, num_sets=4, assoc=2, line_flits=4,
                     latency=1.0)
            for i in range(num_slices)
        ]
        self.mcs = [_MC() for _ in range(num_mcs)]


def _dirty_up(system, lines_per_slice=3):
    """Deposit write-back dirty lines in every slice."""
    for sl in system.llc_slices:
        for key in range(lines_per_slice):
            sl.access(0.0, key, is_write=True)  # write-back: stays dirty
    return lines_per_slice * len(system.llc_slices)


def test_shared_to_private_with_zero_dirty_lines():
    cfg = AdaptiveConfig(drain_cycles=200, power_gate_cycles=30)
    system = _System()
    rc = Reconfigurator(cfg)
    cost = rc.transition(system, now=10.0, to_mode=LLCMode.PRIVATE)
    # Nothing was dirty: the stall is exactly drain + power-gate, no
    # writeback traffic reaches any memory controller.
    assert cost.dirty_lines_written == 0
    assert cost.lines_invalidated == 0
    assert cost.stall_cycles == 200 + 30
    assert all(mc.writes == [] for mc in system.mcs)
    assert all(sl.write_through for sl in system.llc_slices)


def test_back_to_back_transitions_accumulate():
    cfg = AdaptiveConfig(drain_cycles=100, power_gate_cycles=20)
    system = _System()
    dirty = _dirty_up(system, lines_per_slice=2)
    rc = Reconfigurator(cfg)

    c1 = rc.transition(system, 0.0, LLCMode.PRIVATE)   # cleans all dirty
    assert c1.dirty_lines_written == dirty
    c2 = rc.transition(system, 1.0, LLCMode.SHARED)    # invalidates residue
    assert c2.dirty_lines_written == 0   # already clean (write-through)
    assert c2.lines_invalidated == dirty  # the cleaned lines stayed valid
    assert not any(sl.write_through for sl in system.llc_slices)
    c3 = rc.transition(system, 2.0, LLCMode.PRIVATE)   # nothing left to do
    assert c3.dirty_lines_written == 0

    assert rc.transitions == 3
    assert rc.total_stall_cycles == pytest.approx(
        c1.stall_cycles + c2.stall_cycles + c3.stall_cycles)
    assert sum(len(mc.writes) for mc in system.mcs) == dirty


def test_stall_scales_with_config_constants():
    """The stall is drain + measured write-back span + power-gate: the
    write-backs start when the drain ends, and the span runs to the last
    one's retirement."""
    cfg = AdaptiveConfig(drain_cycles=100, power_gate_cycles=10)
    system = _System(num_slices=4, num_mcs=2)
    dirty = _dirty_up(system, lines_per_slice=3)
    cost = Reconfigurator(cfg).transition(system, 50.0, LLCMode.PRIVATE)
    drained = 50.0 + 100
    assert cost.dirty_lines_written == dirty
    assert all(at == drained for mc in system.mcs for at, _ in mc.writes)
    span = max(mc.busy_until for mc in system.mcs) - drained
    # Each controller serializes its two slices' three lines apiece.
    assert span == 6 * WRITE_CYCLES
    assert cost.stall_cycles == 100 + span + 10

    # A flush with nothing dirty costs exactly the two constants.
    empty = Reconfigurator(cfg).transition(_System(), 50.0, LLCMode.PRIVATE)
    assert empty.stall_cycles == 100 + 10


def test_writeback_traffic_lands_on_memory_controllers():
    """Each flushed line is written once, at the controller of the slice
    that holds it (slice ``s`` -> MC ``s // slices_per_mc``), in slice
    order then key order; a dirty count that does not divide by the
    controller count loses nothing."""
    cfg = AdaptiveConfig()
    system = _System(num_slices=4, num_mcs=2)
    written = {0: [9, 2, 5], 2: [7, 4]}
    for s, keys in written.items():
        for key in keys:
            system.llc_slices[s].access(0.0, key, is_write=True)
    cost = Reconfigurator(cfg).transition(system, 0.0, LLCMode.PRIVATE)
    assert cost.dirty_lines_written == 5
    drained = float(cfg.drain_cycles)
    assert system.mcs[0].writes == [(drained, k) for k in [2, 5, 9]]
    assert system.mcs[1].writes == [(drained, k) for k in [4, 7]]
