"""Cross-module conservation and consistency invariants.

These run the full system on varied small workloads and check accounting
identities that must hold regardless of timing: request/fill conservation,
MSHR drainage, LLC bookkeeping, and DRAM traffic consistency.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.experiments.runner import experiment_config
from repro.gpu.system import GPUSystem
from repro.workloads.catalog import build
from repro.workloads.generator import WorkloadSpec, generate_workload

ABBRS = ["SN", "GEMM", "VA"]


def run_system(abbr, mode, n=5000):
    cfg = experiment_config()
    w = build(abbr, total_accesses=n, num_ctas=80, max_kernels=2)
    s = GPUSystem(cfg, w, policy=mode)
    return s, s.run(), w


@pytest.mark.parametrize("abbr", ABBRS)
@pytest.mark.parametrize("mode", ["shared", "private", "adaptive"])
def test_all_accesses_consumed_and_mshrs_drained(abbr, mode):
    s, r, w = run_system(abbr, mode)
    for sm in s.sms:
        assert sm.live_accesses == 0
        assert sm.mshr.outstanding == 0
        assert not sm.ready
    assert r.instructions == pytest.approx(w.total_instructions)


@pytest.mark.parametrize("mode", ["shared", "private"])
def test_llc_reads_match_issued_reads(mode):
    """Every L1-missing read reaches the LLC exactly once (no loss, no
    duplication through the staged pipeline)."""
    s, r, _ = run_system("SN", mode)
    issued = sum(sm.issued_reads for sm in s.sms)
    llc_reads = sum(sl.read_hits + sl.read_misses for sl in s.llc_slices)
    assert llc_reads == issued


@pytest.mark.parametrize("mode", ["shared", "private"])
def test_llc_writes_match_issued_writes(mode):
    s, r, _ = run_system("VA", mode)
    issued = sum(sm.issued_writes for sm in s.sms)
    llc_writes = sum(sl.write_hits + sl.write_misses for sl in s.llc_slices)
    assert llc_writes == issued


def test_dram_reads_equal_llc_read_misses_shared():
    s, r, _ = run_system("GEMM", "shared")
    read_misses = sum(sl.read_misses for sl in s.llc_slices)
    assert r.dram_reads == read_misses


def test_write_through_dram_writes_at_least_llc_writes():
    s, r, _ = run_system("VA", "private")
    issued_writes = sum(sm.issued_writes for sm in s.sms)
    # Every write goes through plus any dirty residue from reconfiguration.
    assert r.dram_writes >= issued_writes


@pytest.mark.parametrize("tier", ["event", "batch"])
@pytest.mark.parametrize("abbr", ["VA", "BS", "GEMM"])
@pytest.mark.parametrize("mode", ["shared", "private", "adaptive"])
def test_dram_writes_conserved_and_no_dirty_residue(abbr, mode, tier,
                                                   dram_writes_conserved):
    """DRAM writes == write-through stores + evicted, flushed and drained
    dirty lines, and every run ends with no dirty line in the LLC."""
    cfg = experiment_config().replace(tier=tier)
    w = build(abbr, total_accesses=20_000, num_ctas=80, max_kernels=2)
    s = GPUSystem(cfg, w, policy=mode)
    r = s.run()
    assert s.tier == tier
    # The run-end drain lands before the result is collected.
    assert r.dram_writes == sum(mc.write_requests for mc in s.mcs)
    dram_writes_conserved(s)


def test_store_buffer_credits_restored():
    s, r, _ = run_system("VA", "shared")
    for sm in s.sms:
        assert sm.write_credits == 16


def test_response_flit_accounting_consistent():
    s, r, _ = run_system("SN", "shared")
    per_slice = sum(sl.response_flits for sl in s.llc_slices)
    assert r.llc_response_flits == pytest.approx(per_slice)
    # 5 flits per read response (4 body + head) at 32 B channels.
    reads = sum(sm.issued_reads for sm in s.sms)
    assert per_slice == pytest.approx(5 * reads)


def test_llc_occupancy_within_capacity():
    s, r, _ = run_system("GEMM", "shared")
    cap = s.cfg.llc_sets_per_slice * s.cfg.llc_assoc
    for sl in s.llc_slices:
        assert sl.store.occupancy() <= cap


def test_clock_monotone_and_finite():
    s, r, _ = run_system("SN", "adaptive")
    assert 0 < r.cycles < 1e9
    assert s.engine.drained()


@settings(max_examples=8, deadline=None)
@given(shared_frac=st.floats(0.0, 0.95),
       write_frac=st.floats(0.0, 0.5),
       category=st.sampled_from(["shared", "private", "neutral"]))
def test_random_specs_run_to_completion(shared_frac, write_frac, category):
    """Fuzz the generator+system pipeline: arbitrary sane specs must
    simulate to completion under every mode with conserved accounting."""
    spec = WorkloadSpec("fuzz", "FZ", category, shared_mb=0.5,
                        num_kernels=2, shared_frac=shared_frac,
                        hot_mb=0.1 if category == "private" else 0.0,
                        window_mb=0.3 if category == "shared" else 0.0,
                        write_frac=write_frac,
                        l1_bypass_shared=(category == "private"),
                        barrier_interval=4 if category != "neutral" else 0)
    w = generate_workload(spec, num_ctas=40, total_accesses=1500)
    cfg = experiment_config()
    s = GPUSystem(cfg, w, policy="adaptive")
    r = s.run()
    assert r.instructions == pytest.approx(w.total_instructions)
    for sm in s.sms:
        assert sm.mshr.outstanding == 0


# ---------------------------------------------------- no cyclic garbage
#: The e2e benchmark's consolidation mix: four tenants, mixed policies.
MIX_TENANTS = [("VA", "adaptive", None), ("GEMM", "hysteresis", None),
               ("SN", "private", None), ("LUD", "shared", None)]


def _system(tier, policy):
    cfg = experiment_config().replace(tier=tier)
    if policy == "poisson-mix":
        from repro.experiments.campaign import RunSpec, spec_system

        (abbr_a, mode_a, _), (abbr_b, mode_b, _) = MIX_TENANTS[:2]
        return spec_system(RunSpec.pair(abbr_a, abbr_b, mode_a, cfg,
                                        scale=0.05, mode_b=mode_b,
                                        extra=tuple(MIX_TENANTS[2:]),
                                        arrivals="poisson:gap=1500"))
    w = build("RN", total_accesses=8000, num_ctas=80, max_kernels=2)
    return GPUSystem(cfg, w, policy=policy)


@pytest.mark.parametrize("tier", ["event", "batch"])
@pytest.mark.parametrize("policy", ["adaptive", "bandit", "oracle-static",
                                    "poisson-mix"])
def test_run_creates_no_cyclic_garbage(policy, tier):
    """`run()` leaves nothing for the cyclic collector while the system
    is alive.  Campaign specs run with the collector paused (see
    `execute_spec`), so a reference cycle created per event would grow
    a spec's memory without bound; only the finished system itself may
    be a cycle."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system = _system(tier, policy)
        gc.collect()
        result = system.run()
        assert gc.collect() == 0
        assert system.tier == tier
        if policy == "adaptive":
            assert result.transitions >= 1
    finally:
        if was_enabled:
            gc.enable()
