"""Reconfigurator edge cases: zero-dirty transitions, back-to-back mode
flips, and cost scaling with the AdaptiveConfig constants."""

import pytest

from repro.config import AdaptiveConfig
from repro.core.modes import LLCMode
from repro.core.reconfig import Reconfigurator
from repro.cache.llc_slice import LLCSlice


class _Channel:
    def __init__(self):
        self.writes = 0


class _MC:
    def __init__(self):
        self.write_requests = 0
        self.channel = _Channel()


class _Topology:
    def __init__(self):
        self.bypass = False
        self.gate_changes = []

    def set_bypass(self, enabled):
        self.bypass = enabled

    def note_gate_change(self, now):
        self.gate_changes.append(now)


class _System:
    """The minimal surface Reconfigurator.transition touches."""

    def __init__(self, num_slices=4, num_mcs=2, allow_bypass=True):
        self.llc_slices = [
            LLCSlice(slice_id=i, num_sets=4, assoc=2, line_flits=4,
                     latency=1.0)
            for i in range(num_slices)
        ]
        self.mcs = [_MC() for _ in range(num_mcs)]
        self.topology = _Topology()
        self.allow_bypass = allow_bypass


def _dirty_up(system, lines_per_slice=3):
    """Deposit write-back dirty lines in every slice."""
    for sl in system.llc_slices:
        for key in range(lines_per_slice):
            sl.access(0.0, key, is_write=True)  # write-back: stays dirty
    return lines_per_slice * len(system.llc_slices)


def test_shared_to_private_with_zero_dirty_lines():
    cfg = AdaptiveConfig(drain_cycles=200, writeback_cycles_per_line=0.25,
                         power_gate_cycles=30)
    system = _System()
    rc = Reconfigurator(cfg)
    cost = rc.transition(system, now=10.0, to_mode=LLCMode.PRIVATE)
    # Nothing was dirty: the stall is exactly drain + power-gate, no
    # writeback traffic reaches any memory controller.
    assert cost.dirty_lines_written == 0
    assert cost.lines_invalidated == 0
    assert cost.stall_cycles == pytest.approx(200 + 30)
    assert all(mc.write_requests == 0 for mc in system.mcs)
    assert all(sl.write_through for sl in system.llc_slices)
    assert system.topology.bypass is True
    assert system.topology.gate_changes == [10.0]


def test_back_to_back_transitions_accumulate():
    cfg = AdaptiveConfig(drain_cycles=100, writeback_cycles_per_line=0.5,
                         power_gate_cycles=20)
    system = _System()
    dirty = _dirty_up(system, lines_per_slice=2)
    rc = Reconfigurator(cfg)

    c1 = rc.transition(system, 0.0, LLCMode.PRIVATE)   # cleans all dirty
    assert c1.dirty_lines_written == dirty
    c2 = rc.transition(system, 1.0, LLCMode.SHARED)    # invalidates residue
    assert c2.dirty_lines_written == 0   # already clean (write-through)
    assert c2.lines_invalidated == dirty  # the cleaned lines stayed valid
    c3 = rc.transition(system, 2.0, LLCMode.PRIVATE)   # nothing left to do
    assert c3.dirty_lines_written == 0

    assert rc.transitions == 3
    assert rc.total_stall_cycles == pytest.approx(
        c1.stall_cycles + c2.stall_cycles + c3.stall_cycles)
    # A flip back to shared restores write-back and powers routers on.
    assert system.topology.bypass is True  # last transition was to private
    assert system.topology.gate_changes == [0.0, 1.0, 2.0]


def test_stall_scales_with_config_constants():
    system_a, system_b = _System(), _System()
    dirty = _dirty_up(system_a)
    assert _dirty_up(system_b) == dirty

    base = AdaptiveConfig(drain_cycles=100, writeback_cycles_per_line=0.25,
                          power_gate_cycles=10)
    doubled = AdaptiveConfig(drain_cycles=100, writeback_cycles_per_line=0.5,
                             power_gate_cycles=10)
    cost_a = Reconfigurator(base).transition(system_a, 0.0, LLCMode.PRIVATE)
    cost_b = Reconfigurator(doubled).transition(system_b, 0.0,
                                                LLCMode.PRIVATE)
    # Same dirty population, double per-line cost: the delta is exactly
    # dirty * (0.5 - 0.25); fixed drain/power-gate terms cancel.
    assert cost_a.dirty_lines_written == cost_b.dirty_lines_written == dirty
    assert cost_b.stall_cycles - cost_a.stall_cycles == \
        pytest.approx(dirty * 0.25)
    assert cost_a.stall_cycles == pytest.approx(100 + dirty * 0.25 + 10)


def test_writeback_traffic_lands_on_memory_controllers():
    cfg = AdaptiveConfig()
    system = _System(num_slices=4, num_mcs=2)
    dirty = _dirty_up(system, lines_per_slice=4)
    Reconfigurator(cfg).transition(system, 0.0, LLCMode.PRIVATE)
    per_mc = dirty // len(system.mcs)
    assert [mc.write_requests for mc in system.mcs] == [per_mc, per_mc]
    assert [mc.channel.writes for mc in system.mcs] == [per_mc, per_mc]


def test_bypass_respects_system_veto():
    # Multi-program consensus: the system may forbid gating even when a
    # single program's controller goes private.
    cfg = AdaptiveConfig()
    system = _System(allow_bypass=False)
    Reconfigurator(cfg).transition(system, 0.0, LLCMode.PRIVATE)
    assert system.topology.bypass is False
    assert system.topology.gate_changes == []
