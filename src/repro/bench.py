"""Hot-path benchmark: measured simulator throughput over paper scenarios.

The ROADMAP's north star is a simulator that "runs as fast as the hardware
allows" — this module is how that is *measured* rather than assumed.  It
times fig11-style runs (one benchmark under the shared, private, and
adaptive LLC policies, plus an adaptive run with per-program LLC counters
enabled) under **every execution tier** and reports wall time and
simulated work per second per scenario, then writes the record to
``BENCH_hotpath.json`` so every PR has a perf trajectory to beat.

Throughput is simulated kilo-instructions per host second (``kips``), the
unit of the end-to-end benchmark's ``sim_kips``.  Engine events are
recorded too, but they are not a rate of work: the tiers schedule
different numbers of events for the same simulation (the batch tier parks
wakes that can only stall), so events/sec would not compare across tiers.

Schema of the written file::

    {
      "<scenario>": {"tier": str, "wall_s": float, "events": int,
                      "instructions": float, "kips": float,
                      "cycles": float, "digest": str,
                      "samples": [float, ...]},
      ...,
      "_meta": {"benchmark": str, "scale": float, "repeat": int,
                 "python": str, "platform": str}
    }

Scenario keys are the LLC policy names for the event tier (``"adaptive"``)
with a ``[batch]`` suffix for the batch tier (``"adaptive[batch]"``); the
``adaptive+counters`` scenario times the adaptive policy with
:meth:`GPUSystem.enable_program_counters` on, the instrumented path
Scenario-API policies pay, and ``arrivals`` times a three-tenant
consolidation run with Poisson admissions and latency tracking.
``digest`` is the SHA-256 of the run's canonical ``RunResult`` JSON, so
two tiers' rows show whether they simulated the same thing.  ``_meta`` is
advisory; comparison tooling (:func:`compare_bench`) looks only at
``kips`` in the scenario entries.

Timing methodology: each scenario builds the workload and system outside
the timed region (trace generation is setup, not simulation) and times
only :meth:`~repro.gpu.system.GPUSystem.run`.  Every repeat's kinstr/s is
recorded in ``samples``; the headline ``kips`` is the **median** sample
(robust to one noisy neighbour on shared runners, unlike best-of which
tracks the luckiest run), while ``wall_s`` reports the best wall time for
reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import statistics
import sys
import time
from typing import Optional, Sequence

MODES = ("shared", "private", "adaptive")

TIERS = ("event", "batch")

#: Scenario table: (key, LLC policy, per-program counters enabled).
SCENARIOS = (
    ("shared", "shared", False),
    ("private", "private", False),
    ("adaptive", "adaptive", False),
    ("adaptive+counters", "adaptive", True),
    ("arrivals", "adaptive", False),
)

#: Default benchmark: VA is a neutral streaming workload whose adaptive run
#: exercises profiling epochs, transitions, and both organizations.
DEFAULT_BENCHMARK = "VA"


def scenario_key(name: str, tier: str) -> str:
    """Scenario key for a (name, tier) pair: event-tier keys stay bare so
    pre-tier baselines keep comparing against the same keys."""
    return name if tier == "event" else f"{name}[{tier}]"


def _system_factory(abbr: str, mode: str, scale: float, tier: str,
                    counters: bool, arrivals: bool = False):
    """Build-one-system callable for a scenario.  The workload is seeded
    and deterministic: generate it once and rebuild only the simulated
    system per attempt (kernel loading copies the access streams, so runs
    never mutate the trace).

    ``arrivals`` builds the consolidation scenario instead: three tenants
    running ``abbr`` with staggered Poisson admissions and per-request
    latency tracking — the open-system serving path.
    """
    from repro.experiments.runner import _accesses_for, experiment_config
    from repro.gpu.system import GPUSystem
    from repro.workloads.catalog import benchmark
    from repro.workloads.generator import generate_workload

    cfg = dataclasses.replace(experiment_config(), tier=tier)
    if arrivals:
        from repro.consolidate.arrivals import arrival_times
        from repro.scenario import ProgramSpec, Scenario
        from repro.workloads.multiprogram import make_mix

        mp = make_mix((abbr, abbr, abbr),
                      total_accesses=_accesses_for(abbr, scale),
                      num_ctas=2 * cfg.num_sms, max_kernels=1)
        times = arrival_times("poisson:gap=1500", 3, 0)
        scenario = Scenario([ProgramSpec(w, mode) for w in mp.programs],
                            arrival_times=times, track_latency=True)

        def build_consolidation():
            return GPUSystem(cfg, scenario)

        return build_consolidation

    workload = generate_workload(benchmark(abbr),
                                 num_ctas=2 * cfg.num_sms,
                                 total_accesses=_accesses_for(abbr, scale),
                                 max_kernels=3)

    def build():
        system = GPUSystem(cfg, workload, policy=mode)
        if counters:
            system.enable_program_counters()
        return system

    return build


def bench_scenario(abbr: str, mode: str, scale: float, repeat: int = 1,
                   tier: str = "event", counters: bool = False,
                   arrivals: bool = False) -> dict:
    """Time one ``benchmark/mode`` simulation under one execution tier;
    returns a schema row."""
    build = _system_factory(abbr, mode, scale, tier, counters,
                            arrivals=arrivals)
    samples: list[float] = []
    best_wall: Optional[float] = None
    for _ in range(max(1, repeat)):
        system = build()
        t0 = time.perf_counter()
        result = system.run()
        wall = time.perf_counter() - t0
        samples.append(result.instructions / wall / 1e3 if wall > 0 else 0.0)
        if best_wall is None or wall < best_wall:
            best_wall = wall
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return {
        "tier": tier,
        "wall_s": best_wall,
        "events": system.engine.events_processed,
        "instructions": result.instructions,
        "kips": statistics.median(samples),
        "cycles": result.cycles,
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "samples": samples,
    }


def profile_scenario(abbr: str, mode: str, scale: float,
                     tier: str = "event", counters: bool = False,
                     arrivals: bool = False, top: int = 25) -> str:
    """cProfile one scenario run; returns the top-``top`` functions by
    cumulative time as a formatted table.  Runs outside the timed samples
    (profiling overhead would poison them), so a profiled bench pays one
    extra run per scenario."""
    import cProfile
    import io
    import pstats

    system = _system_factory(abbr, mode, scale, tier, counters,
                             arrivals=arrivals)()
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def run_bench(scale: float, benchmark_abbr: str = DEFAULT_BENCHMARK,
              modes: Optional[Sequence[str]] = None, repeat: int = 1,
              tiers: Sequence[str] = TIERS) -> dict:
    """Run every scenario under every requested tier; returns the full
    ``BENCH_hotpath.json`` payload.

    Args:
        scale: trace scale forwarded to the workload generator.
        benchmark_abbr: catalog benchmark to time.
        modes: restrict to these LLC policies (default: every scenario in
            :data:`SCENARIOS`, including ``adaptive+counters``).
        repeat: timing attempts per scenario (all recorded as samples).
        tiers: execution tiers to time (default: both).
    """
    out: dict = {}
    for name, mode, counters in SCENARIOS:
        if modes is not None and mode not in modes:
            continue
        for tier in tiers:
            out[scenario_key(name, tier)] = bench_scenario(
                benchmark_abbr, mode, scale, repeat,
                tier=tier, counters=counters,
                arrivals=name == "arrivals")
    out["_meta"] = {
        "benchmark": benchmark_abbr,
        "scale": scale,
        "repeat": repeat,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    return out


def tier_speedups(data: dict) -> dict[str, float]:
    """Batch-over-event speedup per scenario that was timed under both
    tiers: the ratio of their simulated kinstr/s.  Keys are the bare
    scenario names; empty when the record holds only one of the tiers."""
    speedups = {}
    for scenario, row in data.items():
        if scenario.startswith("_") or "[" in scenario:
            continue
        batch = data.get(scenario_key(scenario, "batch"))
        if batch is None:
            continue
        if row["kips"] > 0:
            speedups[scenario] = batch["kips"] / row["kips"]
    return speedups


def write_bench(path: str, data: dict) -> None:
    """Write the benchmark record as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_bench(current: dict, baseline: dict,
                  max_regress: float = 0.30) -> list[str]:
    """Regression check: simulated kinstr/s per scenario against a
    baseline record.

    Args:
        current: freshly measured payload (:func:`run_bench` shape).
        baseline: previously committed payload; only ``kips`` is read.
        max_regress: allowed fractional slowdown (0.30 = current may be up
            to 30% slower before it counts as a regression — headroom for
            machine-to-machine and CI-runner variance).

    Returns:
        Human-readable failure strings, empty when everything holds.
        Scenarios present only on one side are reported as failures (a
        silently dropped scenario would otherwise pass forever), and so is
        a baseline row without ``kips`` (an events/sec record, which does
        not measure the same thing).
    """
    failures = []
    for scenario, base_row in baseline.items():
        if scenario.startswith("_"):
            continue
        cur_row = current.get(scenario)
        if cur_row is None:
            failures.append(f"{scenario}: missing from current run")
            continue
        if "kips" not in base_row:
            failures.append(f"{scenario}: baseline has no kinstr/s "
                            f"(an events/sec record); re-record it")
            continue
        base_kips = base_row["kips"]
        cur_kips = cur_row["kips"]
        floor = base_kips * (1.0 - max_regress)
        if cur_kips < floor:
            failures.append(
                f"{scenario}: {cur_kips:,.1f} kinstr/s is more than "
                f"{max_regress:.0%} below baseline {base_kips:,.1f}")
    for scenario in current:
        if not scenario.startswith("_") and scenario not in baseline:
            failures.append(f"{scenario}: not present in baseline")
    return failures
