"""Tests for the three crossbar topologies."""

import pytest

from repro.config import GPUConfig, NoCConfig
from repro.noc.concentrated_xbar import ConcentratedCrossbar
from repro.noc.full_xbar import FullCrossbar
from repro.noc.hierarchical_xbar import HierarchicalCrossbar
from repro.noc.topology import make_topology


def cfg(topology="hxbar", channel=32, concentration=2):
    base = GPUConfig.baseline()
    return base.replace(noc=NoCConfig(topology=topology, channel_bytes=channel,
                                      concentration=concentration))


def test_factory_builds_each_topology():
    assert isinstance(make_topology(cfg("full")), FullCrossbar)
    assert isinstance(make_topology(cfg("cxbar")), ConcentratedCrossbar)
    assert isinstance(make_topology(cfg("hxbar")), HierarchicalCrossbar)
    with pytest.raises(ValueError):
        make_topology(cfg("hxbar").replace(noc=NoCConfig(topology="mesh")))


def test_cluster_and_slice_math():
    t = make_topology(cfg())
    assert t.cluster_of(0) == 0
    assert t.cluster_of(79) == 7
    assert t.slice_global(1, 3) == 11


@pytest.mark.parametrize("topo", ["full", "cxbar", "hxbar"])
def test_request_and_reply_make_forward_progress(topo):
    t = make_topology(cfg(topo))
    arr = t.request_arrival(0.0, sm_id=5, mc_id=2, slice_local=1, is_write=False)
    assert arr > 0
    back = t.reply_arrival(arr, mc_id=2, slice_local=1, sm_id=5, is_write=False)
    assert back > arr


@pytest.mark.parametrize("topo", ["full", "cxbar", "hxbar"])
def test_read_reply_heavier_than_request(topo):
    """Read replies carry the line, so they serialize longer."""
    t = make_topology(cfg(topo))
    req = t.request_arrival(0.0, 0, 0, 0, is_write=False)
    t2 = make_topology(cfg(topo))
    rep = t2.reply_arrival(0.0, 0, 0, 0, is_write=False)
    assert rep > req


def test_full_xbar_output_port_is_the_hotspot():
    """Many SMs to one slice serialize on one output port; to different
    slices they proceed in parallel — the shared-LLC bottleneck in a nutshell."""
    t = make_topology(cfg("full"))
    same = [t.request_arrival(0.0, sm, 0, 0, True) for sm in range(8)]
    t2 = make_topology(cfg("full"))
    spread = [t2.request_arrival(0.0, sm, 0, sm % 8, True) for sm in range(8)]
    assert max(same) > max(spread)


def test_cxbar_concentration_contention():
    """SMs sharing a concentrator port contend; SMs on different ports don't."""
    # SMs 0 and 1 share a concentrator port even when their destinations
    # differ, so the second request is delayed at injection.
    t = ConcentratedCrossbar(cfg("cxbar"), concentration=8)
    a = t.request_arrival(0.0, 0, 0, 0, True)
    b = t.request_arrival(0.0, 1, 1, 1, True)
    assert b > a
    # SMs 0 and 8 sit on different ports: same-shaped disjoint paths tie.
    t2 = ConcentratedCrossbar(cfg("cxbar"), concentration=8)
    c = t2.request_arrival(0.0, 0, 0, 0, True)
    d = t2.request_arrival(0.0, 8, 1, 1, True)
    assert c == d


def test_cxbar_rejects_non_dividing_concentration():
    with pytest.raises(ValueError):
        ConcentratedCrossbar(cfg("cxbar"), concentration=3)
    with pytest.raises(ValueError):
        ConcentratedCrossbar(cfg("cxbar"), concentration=0)


def test_hxbar_two_stage_latency_exceeds_full():
    """H-Xbar takes two hops; unloaded latency is higher than the full
    crossbar's single hop (paper: negligible at the application level)."""
    h = make_topology(cfg("hxbar"))
    f = make_topology(cfg("full"))
    th = h.request_arrival(0.0, 0, 0, 0, False)
    tf = f.request_arrival(0.0, 0, 0, 0, False)
    assert th > tf


def test_hxbar_bypass_reaches_only_private_slice():
    h = make_topology(cfg("hxbar"))
    h.set_bypass(True)
    # Cluster of SM 15 is 1 -> slice_local must be 1.
    arr = h.request_arrival(0.0, 15, 3, 1, False)
    assert arr > 0
    with pytest.raises(ValueError):
        h.request_arrival(arr, 15, 3, 2, False)
    # A reply from a non-matching slice (issued before the switch) drains
    # through the MC-router rather than the bypass.
    t_drain = h.reply_arrival(arr, 3, 2, 15, False)
    assert t_drain > arr
    assert h.rep_mc_routers[3].packets == 1


def test_hxbar_bypass_skips_second_stage():
    shared = make_topology(cfg("hxbar"))
    private = make_topology(cfg("hxbar"))
    private.set_bypass(True)
    t_shared = shared.request_arrival(0.0, 0, 0, 0, False)
    t_private = private.request_arrival(0.0, 0, 0, 0, False)
    assert t_private < t_shared
    assert all(r.packets == 0 for r in private.req_mc_routers)


def test_hxbar_gated_time_accounting():
    h = make_topology(cfg("hxbar"))
    h.set_bypass(True)
    h.note_gate_change(100.0)
    assert h.gated_time(400.0) == pytest.approx(300.0)
    h.set_bypass(False)
    h.note_gate_change(400.0)
    assert h.gated_time(1000.0) == pytest.approx(300.0)


def test_bypass_rejected_on_flat_topologies():
    for topo in ("full", "cxbar"):
        t = make_topology(cfg(topo))
        with pytest.raises(ValueError):
            t.set_bypass(True)
        t.set_bypass(False)  # no-op allowed


def test_hxbar_requires_codesign_geometry():
    bad = GPUConfig.baseline().replace(llc_slices_per_mc=4)
    with pytest.raises(ValueError):
        HierarchicalCrossbar(bad)


def test_channel_width_changes_flit_counts():
    wide = make_topology(cfg("hxbar", channel=32))
    narrow = make_topology(cfg("hxbar", channel=16))
    assert narrow.rep_flits(False) > wide.rep_flits(False)


@pytest.mark.parametrize("topo", ["full", "cxbar", "hxbar"])
def test_inventory_is_populated(topo):
    t = make_topology(cfg(topo))
    inv = t.inventory()
    assert inv.routers
    assert inv.links or inv.wires
    if topo == "hxbar":
        assert len(inv.gated_routers) == 16  # 8 req + 8 rep MC-routers
    else:
        assert not inv.gated_routers
