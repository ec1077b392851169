"""Tests for the NoC power/area model — including the Figure 7 shape checks."""

import pytest

from repro.config import GPUConfig, NoCConfig
from repro.noc.concentrated_xbar import ConcentratedCrossbar
from repro.noc.power import NoCPowerModel
from repro.noc.topology import make_topology


def topo(topology, channel=32, concentration=2):
    base = GPUConfig.baseline()
    c = base.replace(noc=NoCConfig(topology=topology, channel_bytes=channel,
                                   concentration=concentration))
    if topology == "cxbar":
        return ConcentratedCrossbar(c, concentration=concentration)
    return make_topology(c)


def model():
    return NoCPowerModel(vcs_per_port=1, flits_per_vc=8)


def drive_uniform(t, packets=200):
    """Push uniform random-ish traffic so activity counters are non-zero."""
    now = 0.0
    for i in range(packets):
        mc = i % t.num_mcs
        sl = (i // t.num_mcs) % t.slices_per_mc
        sm = i % t.num_sms
        arr = t.request_arrival(now, sm, mc, sl, is_write=False)
        t.reply_arrival(arr, mc, sl, sm, is_write=False)
        now += 0.5
    return now + 500.0  # generous drain horizon


def test_area_breakdown_positive_and_summed():
    m = model()
    a = m.area(topo("full").inventory())
    assert a.buffer > 0 and a.crossbar > 0 and a.links > 0 and a.other > 0
    assert a.total == pytest.approx(a.buffer + a.crossbar + a.links + a.other)


def test_fig7b_full_xbar_area_dominated_by_crossbar():
    a = model().area(topo("full").inventory())
    assert a.crossbar > 0.5 * a.total


def test_fig7b_hxbar_area_reduction_62_to_79_percent_vs_full():
    m = model()
    full = m.area(topo("full", 32).inventory()).total
    hx = m.area(topo("hxbar", 32).inventory()).total
    reduction = 1 - hx / full
    assert 0.62 <= reduction <= 0.79, f"area reduction {reduction:.2%}"


def test_fig7b_hxbar_area_reduction_vs_cxbar_pairings():
    """Same-bisection-bandwidth pairs: (C-Xbar conc c @32B, H-Xbar @32/c B)."""
    m = model()
    for conc, h_channel in [(2, 16), (4, 8)]:
        cx = m.area(topo("cxbar", 32, conc).inventory()).total
        hx = m.area(topo("hxbar", h_channel).inventory()).total
        reduction = 1 - hx / cx
        assert reduction >= 0.5, f"conc={conc}: reduction {reduction:.2%}"


def test_fig7b_hxbar_buffer_area_exceeds_full():
    """Paper: the extra second-stage buffers increase buffer area."""
    m = model()
    full = m.area(topo("full", 32).inventory())
    hx = m.area(topo("hxbar", 32).inventory())
    assert hx.buffer > full.buffer


def test_fig7b_absolute_magnitude_plausible():
    """Paper Figure 7b tops out below ~10 mm² at 22 nm."""
    total = model().area(topo("full", 32).inventory()).total
    assert 2.0 < total < 12.0


def test_energy_zero_without_traffic_has_only_leakage():
    m = model()
    t = topo("hxbar")
    e = m.energy(t.inventory(), elapsed_cycles=1000.0)
    assert e.buffer == 0 and e.crossbar == 0
    assert e.other > 0          # leakage
    assert e.links > 0          # link leakage


def test_fig7c_hxbar_cheaper_than_full_and_cxbar_at_same_bw():
    m = model()
    results = {}
    for name, t in [("full", topo("full", 32)), ("hxbar", topo("hxbar", 32))]:
        horizon = drive_uniform(t)
        results[name] = m.energy(t.inventory(), horizon).total
    assert results["hxbar"] < results["full"]

    cx = topo("cxbar", 32, 2)
    hx = topo("hxbar", 16)
    h_cx = drive_uniform(cx)
    h_hx = drive_uniform(hx)
    e_cx = m.energy(cx.inventory(), h_cx).total
    e_hx = m.energy(hx.inventory(), h_hx).total
    assert e_hx < e_cx


def test_gating_reduces_energy():
    m = model()
    t = topo("hxbar")
    horizon = drive_uniform(t)
    ungated = m.energy(t.inventory(), horizon, gated_cycles=0.0).total
    gated = m.energy(t.inventory(), horizon, gated_cycles=horizon * 0.9).total
    assert gated < ungated


def test_gating_bounds_validated():
    m = model()
    t = topo("hxbar")
    with pytest.raises(ValueError):
        m.energy(t.inventory(), 100.0, gated_cycles=200.0)
    with pytest.raises(ValueError):
        m.energy(t.inventory(), -1.0)


def test_power_watts_plausible_range():
    m = model()
    t = topo("full", 32)
    horizon = drive_uniform(t, packets=500)
    watts = m.power_watts(t.inventory(), horizon)
    assert 0.05 < watts < 100.0


def test_energy_scaled_helper():
    m = model()
    t = topo("hxbar")
    e = m.energy(t.inventory(), 100.0)
    half = e.scaled(0.5)
    assert half.total == pytest.approx(e.total * 0.5)
    d = e.as_dict()
    assert set(d) == {"buffer", "crossbar", "links", "other", "total"}
