"""Tests for LLC modes, slice indexing, and the bandwidth model."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bandwidth_model import (
    decide_mode,
    llc_slice_parallelism,
    supplied_bandwidth,
)
from repro.core.modes import LLCMode, target_slice
from repro.mem.address_map import PAEMapping


def mapping():
    return PAEMapping(num_mcs=8, slices_per_mc=8, num_banks=16)


# ------------------------------------------------------------------- modes
def test_mode_is_private_property():
    assert LLCMode.PRIVATE.is_private
    assert not LLCMode.SHARED.is_private


def test_target_slice_shared_uses_address():
    m = mapping()
    mc, sl = target_slice(LLCMode.SHARED, m, 12345, cluster_id=3)
    assert mc == m.mc_of(12345)
    assert sl == m.slice_of(12345)


def test_target_slice_private_uses_cluster():
    m = mapping()
    for cluster in range(8):
        mc, sl = target_slice(LLCMode.PRIVATE, m, 12345, cluster_id=cluster)
        assert mc == m.mc_of(12345)   # MC is always address-determined
        assert sl == cluster


def test_target_slice_private_validates_cluster():
    with pytest.raises(ValueError):
        target_slice(LLCMode.PRIVATE, mapping(), 0, cluster_id=8)


@given(st.integers(0, 2**40), st.integers(0, 7))
def test_private_replicas_share_mc(key, cluster):
    """All replicas of a line live at the same memory controller."""
    m = mapping()
    mc_shared, _ = target_slice(LLCMode.SHARED, m, key, 0)
    mc_private, _ = target_slice(LLCMode.PRIVATE, m, key, cluster)
    assert mc_shared == mc_private


# --------------------------------------------------------------------- LSP
def test_lsp_uniform_is_n():
    assert llc_slice_parallelism([10] * 64) == pytest.approx(64.0)


def test_lsp_single_slice_is_one():
    assert llc_slice_parallelism([100] + [0] * 63) == pytest.approx(1.0)


def test_lsp_zero_traffic_is_one():
    assert llc_slice_parallelism([0, 0, 0]) == 1.0


def test_lsp_validation():
    with pytest.raises(ValueError):
        llc_slice_parallelism([])
    with pytest.raises(ValueError):
        llc_slice_parallelism([1, -1])


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=64))
def test_lsp_bounds(counts):
    lsp = llc_slice_parallelism(counts)
    assert 1.0 <= lsp <= len(counts) + 1e-9


# ---------------------------------------------------------------- BW model
def test_supplied_bandwidth_paper_equation():
    # BW = hit*LSP*LLC_BW + miss*MEM_BW
    bw = supplied_bandwidth(hit_rate=0.8, lsp=32.0, llc_slice_bw=32.0,
                            mem_bw=643.0)
    assert bw == pytest.approx(0.8 * 32 * 32 + 0.2 * 643)


def test_supplied_bandwidth_validation():
    with pytest.raises(ValueError):
        supplied_bandwidth(1.5, 2.0, 32.0, 643.0)
    with pytest.raises(ValueError):
        supplied_bandwidth(0.5, 0.5, 32.0, 643.0)
    with pytest.raises(ValueError):
        supplied_bandwidth(0.5, 2.0, 0.0, 643.0)


def test_rule1_similar_miss_rates_goes_private():
    d = decide_mode(shared_miss_rate=0.30, private_miss_rate=0.31,
                    shared_lsp=40, private_lsp=40,
                    llc_slice_bw=32, mem_bw=643)
    assert d.mode is LLCMode.PRIVATE
    assert d.rule == "rule1"


def test_rule2_bandwidth_win_goes_private():
    # Private miss rate is clearly worse (rule 1 fails) but the LSP gain
    # makes supplied bandwidth higher.
    d = decide_mode(shared_miss_rate=0.05, private_miss_rate=0.15,
                    shared_lsp=4, private_lsp=48,
                    llc_slice_bw=32, mem_bw=643)
    assert d.mode is LLCMode.PRIVATE
    assert d.rule == "rule2"
    assert d.private_bw > d.shared_bw


def test_stay_shared_when_miss_rate_explodes():
    d = decide_mode(shared_miss_rate=0.10, private_miss_rate=0.60,
                    shared_lsp=48, private_lsp=50,
                    llc_slice_bw=32, mem_bw=643)
    assert d.mode is LLCMode.SHARED
    assert d.rule == "stay_shared"


def test_margin_controls_rule1():
    kwargs = dict(shared_miss_rate=0.10, private_miss_rate=0.13,
                  shared_lsp=60, private_lsp=20,
                  llc_slice_bw=32, mem_bw=643)
    loose = decide_mode(miss_rate_margin=0.05, **kwargs)
    tight = decide_mode(miss_rate_margin=0.01, **kwargs)
    assert loose.rule == "rule1"
    assert tight.rule == "stay_shared"


def test_decision_carries_inputs():
    d = decide_mode(0.2, 0.25, 10, 20, 32, 643)
    assert d.shared_miss_rate == 0.2
    assert d.private_miss_rate == 0.25
    assert d.shared_bw > 0 and d.private_bw > 0
