"""Integration tests for the assembled GPU system."""

import gc

import pytest

import repro.gpu.system as system_module
from repro.config import AdaptiveConfig, GPUConfig
from repro.experiments.runner import experiment_config
from repro.gpu.system import GPUSystem
from repro.workloads.catalog import build
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.multiprogram import make_mix


def small_cfg(**kw):
    cfg = GPUConfig.baseline().replace(
        adaptive=AdaptiveConfig(epoch_cycles=20_000, profile_cycles=800,
                                atd_sampled_sets=48, miss_rate_margin=0.05))
    return cfg.replace(**kw) if kw else cfg


def run(abbr="VA", mode="shared", n=4000, kernels=1, **cfg_kw):
    cfg = small_cfg(**cfg_kw)
    w = build(abbr, total_accesses=n, num_ctas=160, max_kernels=kernels)
    return GPUSystem(cfg, w, policy=mode).run()


def test_run_completes_and_reports():
    r = run("VA", "shared")
    assert r.cycles > 0
    assert r.instructions > 0
    assert r.ipc > 0
    assert 0.0 <= r.llc_miss_rate <= 1.0
    assert 0.0 <= r.l1_miss_rate <= 1.0
    assert r.dram_reads > 0
    assert r.mode == "shared"


def test_instructions_match_workload():
    cfg = small_cfg()
    w = build("HG", total_accesses=4000, num_ctas=160, max_kernels=1)
    r = GPUSystem(cfg, w, policy="shared").run()
    assert r.instructions == pytest.approx(w.total_instructions)


def test_deterministic_replay():
    r1 = run("GEMM", "shared", n=3000)
    r2 = run("GEMM", "shared", n=3000)
    assert r1.cycles == r2.cycles
    assert r1.llc_accesses == r2.llc_accesses


@pytest.mark.parametrize("mode", ["shared", "private", "adaptive"])
def test_all_modes_complete(mode):
    r = run("SN", mode, n=4000)
    assert r.cycles > 0


def test_private_mode_gates_hxbar_from_start():
    cfg = small_cfg()
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    s = GPUSystem(cfg, w, policy="private")
    r = s.run()
    assert r.gated_cycles == pytest.approx(r.cycles)
    assert r.time_in_private == pytest.approx(r.cycles)
    # The MC-routers never forwarded a packet.
    assert all(rt.packets == 0 for rt in s.topology.req_mc_routers)


def test_shared_mode_never_gates():
    r = run("VA", "shared", n=2000)
    assert r.gated_cycles == 0.0
    assert r.transitions == 0


def test_multi_kernel_sequences_run():
    r = run("AN", "shared", n=6000, kernels=3)
    assert r.cycles > 0


def test_invalid_mode_rejected():
    cfg = small_cfg()
    w = build("VA", total_accesses=1000, num_ctas=80)
    with pytest.raises(ValueError):
        GPUSystem(cfg, w, policy="magic")
    with pytest.raises(TypeError):
        GPUSystem(cfg, "not a workload", policy="shared")


def test_locality_collection():
    cfg = small_cfg()
    w = build("SN", total_accesses=4000, num_ctas=160, max_kernels=1)
    r = GPUSystem(cfg, w, policy="shared", collect_locality=True).run()
    assert r.locality_fractions is not None
    assert sum(r.locality_fractions) == pytest.approx(1.0)


def test_private_friendly_beats_shared_under_private():
    """End-to-end reproduction of the paper's core claim at small scale."""
    shared = run("SN", "shared", n=30_000)
    private = run("SN", "private", n=30_000)
    assert private.ipc > shared.ipc * 1.05
    assert private.llc_response_rate > shared.llc_response_rate


def test_shared_friendly_hurt_by_private():
    shared = run("GEMM", "shared", n=30_000)
    private = run("GEMM", "private", n=30_000)
    assert private.ipc < shared.ipc * 0.95
    assert private.llc_miss_rate > shared.llc_miss_rate + 0.1


def test_adaptive_keeps_shared_friendly_safe():
    shared = run("GEMM", "shared", n=30_000)
    adaptive = run("GEMM", "adaptive", n=30_000)
    assert adaptive.ipc >= shared.ipc * 0.9


def test_adaptive_gains_on_private_friendly():
    shared = run("RN", "shared", n=30_000)
    adaptive = run("RN", "adaptive", n=30_000)
    assert adaptive.ipc > shared.ipc * 1.03
    assert adaptive.transitions >= 1
    assert adaptive.time_in_private > 0


def test_adaptive_records_history_and_decisions():
    r = run("RN", "adaptive", n=20_000)
    assert r.mode_history
    assert r.decisions
    rules = {d[1].rule for d in r.decisions}
    assert rules & {"rule1", "rule2", "stay_shared"}


def test_write_through_inflates_dram_writes():
    """BS rewrites its output lines across kernels: write-back coalesces
    the rewrites in the LLC, write-through sends every one to DRAM."""
    shared = run("BS", "shared", n=20_000, kernels=3)
    private = run("BS", "private", n=20_000, kernels=3)
    assert private.dram_writes > shared.dram_writes


def test_multiprogram_run_and_stats():
    cfg = small_cfg()
    mp = make_mix(("GEMM", "AN"), total_accesses=8000, num_ctas=160,
                  max_kernels=1)
    r = GPUSystem(cfg, mp, policy="adaptive").run()
    assert len(r.programs) == 2
    names = {p.name for p in r.programs}
    assert names == {"GEMM", "AN"}
    assert all(p.ipc > 0 for p in r.programs)


def test_multiprogram_mixed_modes_do_not_gate():
    """A shared-friendly + private-friendly pair cannot bypass (Fig 9)."""
    cfg = small_cfg()
    mp = make_mix(("GEMM", "RN"), total_accesses=16_000, num_ctas=160,
                  max_kernels=1)
    s = GPUSystem(cfg, mp, policy="adaptive")
    r = s.run()
    modes = {p.workload.name: p.mode.value for p in s.programs}
    if modes["GEMM"] == "shared" and modes["RN"] == "private":
        assert r.gated_cycles < r.cycles * 0.5


def test_atomics_workload_pinned_shared_under_adaptive():
    cfg = small_cfg()
    spec = WorkloadSpec("atomic app", "AT", "private", shared_mb=0.2,
                        num_kernels=1, shared_frac=0.9, hot_mb=0.1,
                        l1_bypass_shared=True, barrier_interval=2,
                        uses_atomics=True)
    w = generate_workload(spec, num_ctas=80, total_accesses=5000)
    r = GPUSystem(cfg, w, policy="adaptive").run()
    assert r.time_in_private == 0.0
    assert r.transitions == 0


def test_reconfiguration_stalls_accounted():
    r = run("RN", "adaptive", n=30_000)
    if r.transitions:
        assert r.stall_cycles > 0
        # Paper: a couple hundred to a couple thousand cycles each.
        assert r.stall_cycles / r.transitions < 10_000


def test_mshr_stalls_are_counted_at_the_stall_site():
    # A tiny MSHR file forces the front end to park on `full` repeatedly;
    # the stall statistic must reflect that (it was permanently zero when
    # only MSHRFile.allocate — which the front end never reaches when
    # full — counted stalls).
    cfg = small_cfg(max_outstanding_misses=1)
    w = build("VA", total_accesses=4000, num_ctas=160, max_kernels=1)
    s = GPUSystem(cfg, w, policy="shared")
    r = s.run()
    assert r.cycles > 0
    assert sum(sm.mshr.stalls for sm in s.sms) > 0


@pytest.mark.parametrize("tier", ["event", "batch"])
def test_system_runs_once(tier):
    """A second `run()` is refused: the run consumed the traces' kernels
    and the batch tier detached from the system when it collected."""
    w = build("LUD", total_accesses=3000, num_ctas=160, max_kernels=2)
    s = GPUSystem(small_cfg(tier=tier), w, policy="shared")
    assert s.tier == tier
    first = s.run()
    with pytest.raises(RuntimeError, match="runs once; build a new one"):
        s.run()
    # The finished system stays readable.
    assert sum(sm.retired_instructions for sm in s.sms) == first.instructions


@pytest.mark.parametrize("tier", ["event", "batch"])
def test_request_pool_is_recycled(tier, monkeypatch):
    """The pool starts empty and grows only when it runs dry, so after the
    run it holds exactly the requests ever built: one leaked (never
    returned) or double-returned request breaks the count.  The batch tier
    imports ``Request`` from ``repro.gpu.system`` at install time, so the
    counting patch reaches both tiers."""
    built = []

    class CountingRequest(system_module.Request):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(system_module, "Request", CountingRequest)
    cfg = small_cfg(tier=tier)
    w = build("VA", total_accesses=3000, num_ctas=160, max_kernels=1)
    s = GPUSystem(cfg, w, policy="shared")
    assert s.tier == tier
    assert s._req_pool == []
    s.run()
    assert built, "the run must issue requests"
    # Every in-flight request was handed back once and cleared.
    assert len(s._req_pool) == len(built)
    assert {id(req) for req in s._req_pool} == {id(req) for req in built}
    assert all(req.sm is None for req in s._req_pool)


@pytest.mark.parametrize("tier", ["event", "batch"])
def test_system_build_object_budget(tier):
    """Building a system stays cheap for the cyclic GC: the tag stores
    hold one key list per set (no per-set policy or dirty-bit objects),
    requests are built on demand, and the batch tier's routes index the
    topology's own port rows.  The way-indexed build took 41k (event) and
    58k (batch) tracked objects for this system."""
    cfg = experiment_config(tier=tier)
    w = build("GEMM", total_accesses=2_000)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        s = GPUSystem(cfg, w, policy="adaptive")
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert s.tier == tier
    assert tracked < 25_000
