"""Shared experiment infrastructure.

:func:`run_benchmark` / :func:`run_pair` build the simulated GPU from
Table 1 defaults plus overrides, size traces per category, attach the
scaled adaptive-controller parameters, and (optionally) an energy report.

These are the *execution primitives*.  Figure drivers no longer call them
directly: they declare :class:`~repro.experiments.campaign.RunSpec` batches
and read results from a :class:`~repro.experiments.campaign.Campaign`,
which deduplicates identical runs, caches finished results on disk, and
fans cache misses out over a worker pool.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AdaptiveConfig, GPUConfig
from repro.gpu.system import GPUSystem, RunResult
from repro.power.gpu_power import GPUPowerModel
from repro.workloads.catalog import benchmark
from repro.workloads.generator import generate_workload
from repro.workloads.multiprogram import make_pair

#: Trace budget per benchmark category (accesses at scale=1.0).  Private-
#: friendly workloads reach contention steady state quickly; neutral
#: streaming needs enough distinct lines to cycle the 6 MB LLC.
DEFAULT_ACCESSES = {
    "shared": 80_000,
    "private": 100_000,
    "neutral": 150_000,
}


def scaled_adaptive_config() -> AdaptiveConfig:
    """Adaptive-controller parameters for scaled traces.

    The paper profiles 50 K cycles per 1 M-cycle epoch on billion-
    instruction runs; scaled runs keep a comparable profile share but need
    denser ATD sampling (all 48 sets of the shadow slice) and a slightly
    wider Rule-1 margin to offset small-sample noise.
    """
    return AdaptiveConfig(
        epoch_cycles=150_000,
        profile_cycles=800,
        profile_warmup_cycles=500,
        atd_sampled_sets=48,
        miss_rate_margin=0.05,
    )


def experiment_config(**overrides) -> GPUConfig:
    """Table 1 baseline + scaled adaptive parameters + overrides."""
    cfg = GPUConfig.baseline().replace(adaptive=scaled_adaptive_config())
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


#: Scale at which the interval policies' default windows are calibrated
#: (``medium``); below it, windows must shrink with the trace or the
#: policies never see enough full windows to act.
INTERVAL_REFERENCE_SCALE = 0.25

#: Registered policies whose window parameters scale with the trace.
_INTERVAL_POLICIES = ("miss-rate-threshold", "hysteresis", "bandit")


def scaled_policy_params(policy: str, scale: float,
                         params: Optional[dict] = None) -> dict:
    """Derive interval-policy window parameters from the trace scale.

    The dynamic heuristics' defaults (``interval=1500``,
    ``min_samples=128``) are tuned for scales >= 0.25; a ``smoke`` run is
    a few thousand cycles long, so at default settings the controllers
    silently stay static — the same problem
    :func:`scaled_adaptive_config` solves for the paper controller.  This
    shrinks ``interval`` and ``min_samples`` proportionally (with floors)
    for the interval-window policies; explicitly supplied parameters
    always win, and non-interval policies pass through untouched.
    """
    from repro.policy import canonical_policy_name, policy_class

    out = dict(params or {})
    name = canonical_policy_name(policy)
    if name not in _INTERVAL_POLICIES or scale >= INTERVAL_REFERENCE_SCALE:
        return out
    factor = scale / INTERVAL_REFERENCE_SCALE
    schema = policy_class(name).param_schema()
    out.setdefault("interval",
                   max(200, round(schema["interval"].default * factor)))
    out.setdefault("min_samples",
                   max(16, round(schema["min_samples"].default * factor)))
    return out


def _accesses_for(abbr: str, scale: float) -> int:
    spec = benchmark(abbr)
    return max(2_000, int(DEFAULT_ACCESSES[spec.category] * scale))


def run_benchmark(abbr: str, mode: str, cfg: Optional[GPUConfig] = None,
                  scale: float = 1.0, num_ctas: Optional[int] = None,
                  max_kernels: int = 3, collect_locality: bool = False,
                  with_energy: bool = False,
                  policy_params: Optional[dict] = None) -> RunResult:
    """Run one catalog benchmark under one LLC policy.

    ``mode`` is any name registered in :mod:`repro.policy` (the historical
    triad included); ``policy_params`` are that policy's parameter
    overrides.

    Kernel boundaries matter: they re-synchronize the CTA convoys that
    create the shared-LLC contention (real DNNs launch one kernel per
    layer), and they trigger Rule #3 re-profiling.  ``max_kernels=3`` keeps
    both effects while bounding the per-kernel profiling overhead that
    scaled traces magnify.

    Returns the :class:`~repro.gpu.system.RunResult`; when ``with_energy``
    is set, ``result.energy`` carries a
    :class:`~repro.power.gpu_power.SystemEnergyReport`.
    """
    cfg = cfg or experiment_config()
    if num_ctas is None:
        num_ctas = 2 * cfg.num_sms
    workload = generate_workload(benchmark(abbr), num_ctas=num_ctas,
                                 total_accesses=_accesses_for(abbr, scale),
                                 max_kernels=max_kernels)
    system = GPUSystem(cfg, workload, policy=mode,
                       policy_params=policy_params,
                       collect_locality=collect_locality)
    result = system.run()
    if with_energy:
        result.energy = GPUPowerModel().report(system, result)
    return result


def run_pair(abbr_a: str, abbr_b: str, mode: str,
             cfg: Optional[GPUConfig] = None, scale: float = 1.0,
             max_kernels: int = 1, num_ctas: Optional[int] = None,
             collect_locality: bool = False,
             with_energy: bool = False,
             policy_params: Optional[dict] = None) -> RunResult:
    """Run a two-program mix (Figure 15).

    Accepts the same optional flags as :func:`run_benchmark` so a campaign
    :class:`~repro.experiments.campaign.RunSpec` means the same thing
    whether it names one program or a pair.
    """
    cfg = cfg or experiment_config()
    total = max(4_000, int(60_000 * scale))
    if num_ctas is None:
        num_ctas = 2 * cfg.num_sms
    mp = make_pair(abbr_a, abbr_b, total_accesses=total,
                   num_ctas=num_ctas, max_kernels=max_kernels)
    system = GPUSystem(cfg, mp, policy=mode, policy_params=policy_params,
                       collect_locality=collect_locality)
    result = system.run()
    if with_energy:
        result.energy = GPUPowerModel().report(system, result)
    return result


def run_mix(abbr_a: str, abbr_b: str, mode_a: str, mode_b: str,
            cfg: Optional[GPUConfig] = None, scale: float = 1.0,
            max_kernels: int = 1, num_ctas: Optional[int] = None,
            collect_locality: bool = False,
            with_energy: bool = False,
            policy_params_a: Optional[dict] = None,
            policy_params_b: Optional[dict] = None) -> RunResult:
    """Run a two-program mix with *per-program* LLC policies.

    The Scenario-API sibling of :func:`run_pair`: the same workload pair
    (identical traces, placement, address offsets) but program A runs
    ``mode_a`` while program B runs ``mode_b`` — the heterogeneous
    co-execution the one-policy surface could not express.
    """
    from repro.scenario import ProgramSpec, Scenario

    cfg = cfg or experiment_config()
    total = max(4_000, int(60_000 * scale))
    if num_ctas is None:
        num_ctas = 2 * cfg.num_sms
    mp = make_pair(abbr_a, abbr_b, total_accesses=total,
                   num_ctas=num_ctas, max_kernels=max_kernels)
    scenario = Scenario.mix(
        ProgramSpec(mp.programs[0], mode_a, policy_params_a),
        ProgramSpec(mp.programs[1], mode_b, policy_params_b))
    system = GPUSystem(cfg, scenario, collect_locality=collect_locality)
    result = system.run()
    if with_energy:
        result.energy = GPUPowerModel().report(system, result)
    return result


def run_consolidation(tenants, cfg: Optional[GPUConfig] = None,
                      scale: float = 1.0, max_kernels: int = 1,
                      num_ctas: Optional[int] = None,
                      arrivals: Optional[str] = None,
                      placement: Optional[str] = None, seed: int = 0,
                      collect_locality: bool = False,
                      with_energy: bool = False) -> RunResult:
    """Run an N-tenant consolidation mix with open-system arrivals.

    ``tenants`` is a sequence of ``(benchmark, policy, params_dict)``
    triples, one per tenant in admission order.  The workloads share the
    trace budget :func:`run_pair` uses, so a two-tenant closed run is the
    same simulation as the pair path; ``arrivals`` (an
    :mod:`repro.consolidate.arrivals` spec, seeded by ``seed``) staggers
    admissions, and ``placement`` names the SM-placement policy
    (default: the generalized Figure 9 cluster-split).

    Per-request latency tracking is always on — consolidation runs exist
    to report tail latency and fairness — which forces the event
    execution tier (the batch tier declines).
    """
    from repro.consolidate.arrivals import arrival_times
    from repro.scenario import ProgramSpec, Scenario
    from repro.workloads.multiprogram import make_mix

    tenants = list(tenants)
    cfg = cfg or experiment_config()
    total = max(4_000, int(60_000 * scale))
    if num_ctas is None:
        num_ctas = 2 * cfg.num_sms
    mp = make_mix(tuple(abbr for abbr, _, _ in tenants),
                  total_accesses=total, num_ctas=num_ctas,
                  max_kernels=max_kernels)
    times = arrival_times(arrivals, len(tenants), seed)
    scenario = Scenario(
        [ProgramSpec(wl, mode, params)
         for wl, (_, mode, params) in zip(mp.programs, tenants)],
        placement=placement, arrival_times=times, track_latency=True)
    system = GPUSystem(cfg, scenario, collect_locality=collect_locality)
    result = system.run()
    if with_energy:
        result.energy = GPUPowerModel().report(system, result)
    return result


def print_rows(rows: list[dict], columns: Optional[list[str]] = None) -> None:
    """Aligned plain-text table, one dict per row."""
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows))
              for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
