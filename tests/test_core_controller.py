"""Tests for the adaptive controller, reconfigurator, sampler, and metrics."""

import dataclasses

import pytest

from repro.config import AdaptiveConfig, GPUConfig
from repro.core.controller import AdaptiveController
from repro.core.modes import LLCMode
from repro.core.reconfig import Reconfigurator
from repro.core.sampler import ProfileReport, ProfilingState
from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import scaled_adaptive_config
from repro.cache.llc_slice import LLCSlice
from repro.mem.address_map import PAEMapping
from repro.mem.controller import MemoryController
from repro.metrics.locality import InterClusterLocalityTracker
from repro.metrics.perf import system_throughput
from repro.sim.engine import Engine


def cfg_small():
    return GPUConfig.baseline().replace(
        adaptive=AdaptiveConfig(epoch_cycles=10_000, profile_cycles=500,
                                atd_sampled_sets=48))


class FakeSystem:
    """Minimal duck-typed system for reconfigurator/controller tests."""

    def __init__(self, cfg):
        self.llc_slices = [
            LLCSlice(i, num_sets=cfg.llc_sets_per_slice, assoc=cfg.llc_assoc,
                     line_flits=4, latency=120.0)
            for i in range(4)
        ]
        mapping = PAEMapping(8, 8, 16)
        self.mcs = [MemoryController(m, cfg, mapping) for m in range(2)]


# ------------------------------------------------------------ reconfigure
def test_transition_to_private_cleans_and_sets_write_through():
    cfg = cfg_small()
    sys_ = FakeSystem(cfg)
    sys_.llc_slices[0].access(0.0, 1, is_write=True)  # dirty line
    rec = Reconfigurator(cfg.adaptive)
    cost = rec.transition(sys_, 100.0, LLCMode.PRIVATE)
    assert cost.dirty_lines_written == 1
    assert all(sl.write_through for sl in sys_.llc_slices)
    # Contents kept on shared->private.
    assert sys_.llc_slices[0].store.occupancy() == 1
    assert cost.stall_cycles >= cfg.adaptive.drain_cycles


def test_transition_to_shared_flushes_everything():
    cfg = cfg_small()
    sys_ = FakeSystem(cfg)
    for sl in sys_.llc_slices:
        sl.set_write_policy(True)
        sl.access(0.0, 1, is_write=False)
    rec = Reconfigurator(cfg.adaptive)
    cost = rec.transition(sys_, 100.0, LLCMode.SHARED)
    assert cost.lines_invalidated == 4
    assert all(not sl.write_through for sl in sys_.llc_slices)
    assert all(sl.store.occupancy() == 0 for sl in sys_.llc_slices)


def test_transition_accounts_dram_writeback_traffic():
    cfg = cfg_small()
    sys_ = FakeSystem(cfg)
    for sl in sys_.llc_slices:
        sl.access(0.0, 1, is_write=True)
        sl.access(0.0, 2, is_write=True)
    rec = Reconfigurator(cfg.adaptive)
    before = sum(mc.write_requests for mc in sys_.mcs)
    cost = rec.transition(sys_, 0.0, LLCMode.PRIVATE)
    after = sum(mc.write_requests for mc in sys_.mcs)
    assert cost.dirty_lines_written == 8
    assert after - before == 8


def test_reconfigurator_counts_transitions_and_stalls():
    cfg = cfg_small()
    sys_ = FakeSystem(cfg)
    rec = Reconfigurator(cfg.adaptive)
    rec.transition(sys_, 0.0, LLCMode.PRIVATE)
    rec.transition(sys_, 100.0, LLCMode.SHARED)
    assert rec.transitions == 2
    assert rec.total_stall_cycles > 0


# ---------------------------------------------------------------- sampler
def test_profiler_measures_shared_miss_rate():
    p = ProfilingState(cfg_small())
    p.start()
    p.observe_request(1, cluster_id=2, mc_id=1, slice_global=9, hit=True)
    p.observe_request(2, cluster_id=2, mc_id=1, slice_global=9, hit=False)
    report = p.stop()
    assert report.shared_miss_rate == pytest.approx(0.5)


def test_profiler_shadow_private_slice_estimate():
    p = ProfilingState(cfg_small())
    p.start()
    # Cluster 0 -> MC 0 traffic feeds the shadow slice; a recurrence hits.
    p.observe_request(7, 0, 0, 0, hit=False)
    p.observe_request(7, 0, 0, 0, hit=False)
    # Other clusters' traffic does not touch the ATD.
    p.observe_request(7, 3, 0, 24, hit=True)
    report = p.stop()
    assert p.atd.sampled_accesses == 2
    assert report.private_miss_rate == pytest.approx(0.5)


def test_profiler_lsp_scaling():
    cfg = cfg_small()
    p = ProfilingState(cfg)
    p.start()
    # Cluster 0 spreads requests evenly over all 8 MCs.
    for mc in range(8):
        p.observe_request(mc * 1000, 0, mc, mc * 8, hit=True)
    report = p.stop()
    assert report.private_lsp == pytest.approx(64.0)  # 8 x 8 clusters


def test_profiler_inactive_ignores_observations():
    p = ProfilingState(cfg_small())
    p.observe_request(1, 0, 0, 0, hit=True)
    assert p.shared_accesses == 0


def test_profiler_report_usable_threshold():
    assert not ProfileReport(10, 0.1, 0.1, 1, 1).usable
    assert ProfileReport(16, 0.1, 0.1, 1, 1).usable


def test_profiler_hardware_budget():
    cfg = GPUConfig.baseline()  # paper config: 8 sampled sets
    p = ProfilingState(cfg)
    assert p.hardware_bytes() <= 1024


# ------------------------------------------------------------- controller
def probe_mode(arg):
    """Engine callback: note the controller's mode at this instant."""
    ctrl, modes = arg
    modes.append(ctrl.mode)


def run_until(eng, ctrl, stop):
    """Run until ``stop``, where an event shuts the controller down (its
    recurring epoch timer would keep the queue alive forever)."""
    eng.schedule_call(stop, lambda _: ctrl.shutdown(), None)
    eng.run()
    assert eng.drained() and eng.now == stop


def make_controller(engine, system, cfg=None, **kw):
    cfg = cfg or cfg_small()
    return AdaptiveController(cfg, engine, system, **kw)


def test_controller_starts_shared_and_profiles():
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg_small()))
    ctrl.start(0.0)
    assert ctrl.mode is LLCMode.SHARED
    assert ctrl.profiler.active


def test_controller_rule1_transition_and_epoch_revert():
    cfg = cfg_small()
    eng = Engine()
    sys_ = FakeSystem(cfg)
    events = []
    ctrl = make_controller(eng, sys_, cfg,
                           on_transition=lambda t, m, c: events.append((t, m)))
    ctrl.start(0.0)
    # Feed equal-ish miss-rate evidence: lots of same-line cluster-0 hits.
    for i in range(40):
        ctrl.profiler.observe_request(5, 0, 0, 0, hit=(i > 0))
    modes = []
    eng.schedule_call(600.0, probe_mode, (ctrl, modes))  # profile ends at 500
    run_until(eng, ctrl, 10_500.0)
    assert modes == [LLCMode.PRIVATE]
    assert events and events[0][1] is LLCMode.PRIVATE
    # At the next epoch boundary the LLC reverts to shared (Rule #3).
    assert any(m is LLCMode.SHARED for _, m in events[1:])


def test_controller_unusable_profile_stays_shared():
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg_small()))
    ctrl.start(0.0)
    run_until(eng, ctrl, 600.0)   # no observations at all
    assert ctrl.mode is LLCMode.SHARED


def test_controller_force_shared_for_atomics():
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg_small()), force_shared=True)
    ctrl.start(0.0)
    for i in range(40):
        ctrl.profiler.observe_request(5, 0, 0, 0, hit=(i > 0))
    run_until(eng, ctrl, 600.0)
    assert ctrl.mode is LLCMode.SHARED


def test_controller_kernel_launch_reverts_and_reprofiles():
    cfg = cfg_small()
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg), cfg)
    ctrl.start(0.0)
    ctrl.mode = LLCMode.PRIVATE  # pretend a transition happened
    seen = []

    def launch(_):
        ctrl.on_kernel_launch(eng.now)
        seen.append((ctrl.mode, ctrl.profiler.active))

    eng.schedule_call(100.0, launch, None)
    run_until(eng, ctrl, 100.0)
    assert seen == [(LLCMode.SHARED, True)]


def test_controller_timers_fire_a_delay_after_now():
    # A timer is queued `delay` cycles after the engine's current time:
    # a kernel launch at t=100 re-profiles until 100 + profile_cycles.
    cfg = cfg_small()
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg), cfg)
    ctrl.start(0.0)
    queued = []

    def launch(_):
        ctrl.on_kernel_launch(eng.now)
        queued.extend(sorted(e[0] for e in eng._heap[1:]))

    eng.schedule_call(100.0, launch, None)
    run_until(eng, ctrl, 200.0)
    assert queued == [200.0, 500.0, 600.0, 10_000.0]


def test_controller_shutdown_cancels_events():
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg_small()))
    ctrl.start(0.0)
    assert eng.pending == 2  # the epoch boundary and the profile window
    ctrl.shutdown()
    assert eng.drained()
    eng.run()
    assert eng.events_processed == 0


def test_time_in_private_accounting():
    eng = Engine()
    ctrl = make_controller(eng, FakeSystem(cfg_small()))
    ctrl.mode_history = [(0.0, LLCMode.SHARED, "start"),
                         (100.0, LLCMode.PRIVATE, "rule1"),
                         (400.0, LLCMode.SHARED, "rule3_epoch")]
    assert ctrl.time_in_private(1000.0) == pytest.approx(300.0)
    ctrl.mode_history.append((900.0, LLCMode.PRIVATE, "rule2"))
    assert ctrl.time_in_private(1000.0) == pytest.approx(400.0)


# ------------------------------------------------------------- ablations
#: Half the paper trace: at 0.05 the paper-scale cost no longer stays
#: within 15% of free reconfiguration (6.88 vs 8.12 IPC on RN).
ABLATION_SCALE = 0.5


def test_reconfiguration_cost_stays_bounded():
    """Zeroed vs paper vs 10x drain/power-gate costs (the write-back span
    is measured, so it stays): costs order IPC monotonically, and the
    paper's costs stay within 15% of free (the paper's 1 M-cycle epochs
    amortize them further)."""
    ipc = []
    for factor in (0.0, 1.0, 10.0):
        base = scaled_adaptive_config()
        acfg = dataclasses.replace(
            base,
            drain_cycles=int(base.drain_cycles * factor),
            power_gate_cycles=int(base.power_gate_cycles * factor))
        cfg = GPUConfig.baseline().replace(adaptive=acfg)
        ipc.append(execute_spec(RunSpec.single(
            "RN", "adaptive", cfg, scale=ABLATION_SCALE)).ipc)
    free, paper, heavy = ipc
    assert free >= paper >= heavy
    assert paper > 0.85 * free


def test_longer_profile_window_costs_private_residency():
    """Longer profiling windows cost private-mode residency on AN."""
    residency = []
    for profile in (400, 800, 3200):
        acfg = dataclasses.replace(scaled_adaptive_config(),
                                   profile_cycles=profile)
        cfg = GPUConfig.baseline().replace(adaptive=acfg)
        res = execute_spec(RunSpec.single("AN", "adaptive", cfg,
                                          scale=ABLATION_SCALE))
        residency.append(res.time_in_private / res.cycles)
    assert residency[0] >= residency[-1]


# ---------------------------------------------------------------- metrics
def test_locality_tracker_buckets():
    t = InterClusterLocalityTracker(window_cycles=100.0)
    t.note(1, 0, 10.0)
    t.note(1, 1, 20.0)          # line 1: 2 clusters
    t.note(2, 3, 30.0)          # line 2: 1 cluster
    t.note(3, 0, 40.0)
    for c in range(5):
        t.note(3, c, 50.0)      # line 3: 5 clusters
    t.finalize()
    assert t.bucket_counts == [1, 1, 0, 1]
    assert t.shared_fraction() == pytest.approx(2 / 3)


def test_locality_tracker_windows_reset():
    t = InterClusterLocalityTracker(window_cycles=100.0)
    t.note(1, 0, 10.0)
    t.note(1, 1, 150.0)   # new window: line 1 seen by one cluster each time
    t.finalize()
    assert t.bucket_counts[0] == 2
    assert t.shared_fraction() == 0.0


def test_locality_tracker_weighted_mode():
    t = InterClusterLocalityTracker(window_cycles=100.0, weighted=True)
    for _ in range(9):
        t.note(1, 0, 10.0)      # hot line, single cluster so far
    t.note(1, 1, 20.0)          # touched by a second cluster: 10 accesses
    t.note(2, 0, 30.0)          # cold line: 1 access
    t.finalize()
    assert t.bucket_counts == [1, 10, 0, 0]
    assert t.shared_fraction() == pytest.approx(10 / 11)


def test_locality_tracker_validation():
    with pytest.raises(ValueError):
        InterClusterLocalityTracker(0)
    t = InterClusterLocalityTracker(10)
    t.finalize()
    t.finalize()  # idempotent
    with pytest.raises(RuntimeError):
        t.note(1, 0, 5.0)
    assert t.fractions() == [0.0, 0.0, 0.0, 0.0]


def test_perf_metrics():
    assert system_throughput([5.0, 5.0], [10.0, 10.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        system_throughput([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        system_throughput([1.0], [0.0])


def test_geomean_speedup_ignores_nan_and_inf():
    from repro.metrics.perf import geomean_speedup

    # NaN summary-row slots and inf ratios (zero-IPC baselines) are both
    # dropped; only finite entries shape the geomean.
    assert geomean_speedup([2.0, float("nan"), 8.0]) == pytest.approx(4.0)
    assert geomean_speedup([2.0, float("inf"), 8.0]) == pytest.approx(4.0)
    assert geomean_speedup([4.0, float("-inf")]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean_speedup([float("nan"), float("inf")])
    with pytest.raises(ValueError):
        geomean_speedup([])
