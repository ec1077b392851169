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
def test_run_creates_no_cyclic_garbage(policy, tier, cycle_free):
    """`run()` leaves nothing for the cyclic collector while the system
    is alive: a reference cycle created per event would grow a run's
    memory until the next full collection."""
    system = _system(tier, policy)
    cycle_free(system)
    result = system.run()
    assert gc.collect() == 0
    assert system.tier == tier
    if policy == "adaptive":
        assert result.transitions >= 1


SMOKE = 0.02
#: Oracle probe measurements injected the way the campaign serves them.
PROBES = {"shared": {"ipc": 1.0, "cycles": 2.0, "llc_miss_rate": 0.5},
          "private": {"ipc": 2.0, "cycles": 1.0, "llc_miss_rate": 0.4}}


def _cycle_scenarios() -> dict:
    """Name -> (spec, injected oracle probes): every policy family, both
    tiers, a heterogeneous pair, the consolidation mix and a Hynix run."""
    from repro.experiments.campaign import RunSpec, spec_from_mix

    cfg = experiment_config()
    event = cfg.replace(tier="event")

    def single(abbr, policy, c=cfg):
        return RunSpec.single(abbr, policy, c, scale=SMOKE)

    return {
        "static-shared": (single("GEMM", "static-shared"), None),
        "static-private": (single("GEMM", "static-private"), None),
        "paper-adaptive/batch": (single("SN", "paper-adaptive"), None),
        "paper-adaptive/event": (single("SN", "paper-adaptive", event),
                                 None),
        "hysteresis": (single("GEMM", "hysteresis"), None),
        "miss-rate-threshold": (single("GEMM", "miss-rate-threshold"),
                                None),
        "bandit": (single("GEMM", "bandit"), None),
        "oracle-static/probes": (single("SN", "oracle-static"), PROBES),
        "pair": (RunSpec.pair("LUD", "RN", "static-private", cfg,
                              scale=SMOKE, mode_b="paper-adaptive"), None),
        "consolidation": (spec_from_mix(
            "+".join(f"{abbr}:{mode}" for abbr, mode, _ in MIX_TENANTS),
            scale=SMOKE, arrivals="poisson:gap=1500", seed=1), None),
        "hynix/event": (single("VA", "adaptive",
                               event.replace(address_mapping="hynix")),
                        None),
    }


@pytest.mark.parametrize("name", sorted(_cycle_scenarios()))
def test_finished_system_is_freed_without_the_collector(name, cycle_free):
    """Once `run()` returns, nothing the system built keeps it alive:
    policies, controllers and the batch tier have let go of it, so
    dropping it frees it by reference counting alone."""
    from repro.experiments.campaign import spec_system

    spec, probes = _cycle_scenarios()[name]
    system = spec_system(spec, probes)
    cycle_free(system)
    system.run()
    assert system.tier == spec.cfg.tier
