"""Tests for the Table 1 configuration object."""

import dataclasses

import pytest

from repro.config import AdaptiveConfig, DRAMTiming, GPUConfig, NoCConfig


def test_baseline_matches_table1():
    cfg = GPUConfig.baseline()
    assert cfg.num_sms == 80
    assert cfg.clock_mhz == 1400
    assert cfg.warp_size == 32
    assert cfg.schedulers_per_sm == 2
    assert cfg.threads_per_sm == 2048
    assert cfg.registers_per_sm == 65536
    assert cfg.l1_size_kb == 48 and cfg.l1_assoc == 6
    assert cfg.num_memory_controllers == 8
    assert cfg.llc_slices_per_mc == 8
    assert cfg.llc_slice_kb == 96 and cfg.llc_assoc == 16
    assert cfg.llc_latency_cycles == 120
    assert cfg.dram_banks_per_mc == 16
    assert cfg.dram_bandwidth_gbps == 900.0
    assert cfg.noc.channel_bytes == 32
    assert cfg.noc.router_pipeline_stages == 4
    t = cfg.dram_timing
    assert (t.tCL, t.tRP, t.tRC, t.tRAS) == (12, 12, 40, 28)
    assert (t.tRCD, t.tRRD, t.tCCD, t.tWR) == (12, 6, 2, 12)


def test_derived_geometry():
    cfg = GPUConfig.baseline()
    assert cfg.sms_per_cluster == 10
    assert cfg.num_llc_slices == 64
    assert cfg.llc_total_kb == 6 * 1024
    assert cfg.llc_sets_per_slice == 48
    assert cfg.l1_sets == 64
    assert cfg.line_flits == 4
    # 900 GB/s over 8 MCs at 1.4 GHz ~ 80 bytes/cycle each.
    assert cfg.dram_bytes_per_cycle_per_mc == pytest.approx(80.36, abs=0.1)


def test_replace_is_non_mutating():
    cfg = GPUConfig.baseline()
    other = cfg.replace(num_sms=40, num_clusters=4, llc_slices_per_mc=4)
    assert cfg.num_sms == 80
    assert other.num_sms == 40
    other.validate()


def test_frozen():
    cfg = GPUConfig.baseline()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_sms = 100


def test_validate_codesign_constraint():
    bad = GPUConfig.baseline().replace(llc_slices_per_mc=4)
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_cluster_divisibility():
    bad = GPUConfig.baseline().replace(num_sms=81)
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_enums():
    with pytest.raises(ValueError):
        GPUConfig.baseline().replace(address_mapping="weird").validate()
    with pytest.raises(ValueError):
        GPUConfig.baseline().replace(
            noc=NoCConfig(topology="torus")).validate()
    with pytest.raises(ValueError):
        GPUConfig.baseline().replace(cta_scheduler="fifo").validate()


@pytest.mark.parametrize("field, value, message", [
    ("llc_assoc", 0, "llc_assoc must be >= 1"),
    ("l1_assoc", 0, "l1_assoc must be >= 1"),
    ("line_bytes", 0, "line_bytes must be >= 1"),
    ("num_clusters", 0, "num_clusters must be >= 1"),
    ("num_memory_controllers", 0, "num_memory_controllers must be >= 1"),
    ("llc_slice_kb", -96, "llc_slice_kb must be >= 1"),
    ("clock_mhz", 0, "clock_mhz must be >= 1"),
    ("l1_size_kb", 0, "l1_size_kb must be >= 1"),
    ("llc_latency_cycles", -3, "llc_latency_cycles must be >= 0"),
    ("noc", NoCConfig(channel_bytes=0), "noc.channel_bytes must be >= 1"),
    ("dram_timing", DRAMTiming(tCL=-1), "dram_timing.tCL must be >= 0"),
])
def test_validate_rejects_out_of_range_counts_and_latencies(field, value,
                                                            message):
    """Counts the geometry divides by fail as a ValueError naming the
    field, never as a ZeroDivisionError from a derived property."""
    with pytest.raises(ValueError, match=message):
        GPUConfig.baseline().replace(**{field: value}).validate()


def test_validate_rejects_an_l1_smaller_than_one_set():
    with pytest.raises(ValueError, match="L1 geometry"):
        GPUConfig.baseline().replace(l1_size_kb=1, l1_assoc=16).validate()


def test_validate_accepts_a_zero_llc_latency():
    GPUConfig.baseline().replace(llc_latency_cycles=0).validate()


@pytest.mark.parametrize("concentration", [3, 0, 5])
def test_validate_rejects_a_cxbar_concentration_that_does_not_divide(
        concentration):
    """80 SMs and 64 slices: 3 divides neither, 5 divides only the SMs."""
    bad = GPUConfig.baseline().replace(
        noc=NoCConfig(topology="cxbar", concentration=concentration))
    with pytest.raises(ValueError,
                       match=f"concentration {concentration} does not divide"):
        bad.validate()


def test_validate_ignores_the_concentration_off_the_cxbar():
    GPUConfig.baseline().replace(noc=NoCConfig(concentration=3)).validate()
    GPUConfig.baseline().replace(
        noc=NoCConfig(topology="cxbar", concentration=8)).validate()


def test_noc_flits_for_bytes():
    noc = NoCConfig(channel_bytes=32)
    assert noc.flits_for_bytes(0) == 0
    assert noc.flits_for_bytes(1) == 1
    assert noc.flits_for_bytes(128) == 4
    assert NoCConfig(channel_bytes=16).flits_for_bytes(128) == 8


def test_adaptive_defaults_match_paper():
    a = AdaptiveConfig()
    assert a.epoch_cycles == 1_000_000
    assert a.profile_cycles == 50_000
    assert a.atd_sampled_sets == 8
    assert a.miss_rate_margin == 0.02


def test_sensitivity_configs_validate():
    """Every Figure 16 design point must be a legal configuration."""
    for sms in (40, 80, 160):
        clusters = sms // 10
        GPUConfig.baseline().replace(
            num_sms=sms, num_clusters=clusters,
            llc_slices_per_mc=clusters).validate()
    for kb in (48, 64, 96, 128):
        GPUConfig.baseline().replace(l1_size_kb=kb).validate()
    for width in (16, 32, 64):
        GPUConfig.baseline().replace(
            noc=NoCConfig(channel_bytes=width)).validate()
