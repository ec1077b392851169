"""Hot-path benchmark: measured simulator throughput over paper scenarios.

The ROADMAP's north star is a simulator that "runs as fast as the hardware
allows" — this module is how that is *measured* rather than assumed.  It
times fig11-style runs (one benchmark under the shared, private, and
adaptive LLC policies, plus an adaptive run with per-program LLC counters
enabled) under **every execution tier** and reports wall time, engine
events, and events/sec per scenario, then writes the record to
``BENCH_hotpath.json`` so every PR has a perf trajectory to beat.

Schema of the written file::

    {
      "<scenario>": {"tier": str, "wall_s": float, "events": int,
                      "events_per_sec": float, "cycles": float,
                      "samples": [float, ...]},
      ...,
      "_meta": {"benchmark": str, "scale": float, "repeat": int,
                 "python": str, "platform": str}
    }

Scenario keys are the LLC policy names for the event tier (``"adaptive"``)
with a ``[batch]`` suffix for the batch tier (``"adaptive[batch]"``); the
``adaptive+counters`` scenario times the adaptive policy with
:meth:`GPUSystem.enable_program_counters` on, the instrumented path
Scenario-API policies pay.  ``_meta`` is advisory;
comparison tooling (:func:`compare_bench`) looks only at
``events_per_sec`` in the scenario entries, so records written by older
schema versions (no ``tier``/``samples`` fields, fewer tiers) still load
and compare.

Timing methodology: each scenario builds the workload and system outside
the timed region (trace generation is setup, not simulation) and times
only :meth:`~repro.gpu.system.GPUSystem.run`.  Every repeat's events/sec
is recorded in ``samples``; the headline ``events_per_sec`` is the
**median** sample (robust to one noisy neighbour on shared runners, unlike
best-of which tracks the luckiest run), while ``wall_s`` reports the best
wall time for reference.
"""

from __future__ import annotations

import dataclasses
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

#: Scenarios pinned to the event tier.  Consolidation runs track
#: per-request latency and admit tenants mid-run, so the batch tier
#: declines the install — timing it there would measure the event tier
#: twice and drag the tier-speedup geomean toward 1.0.
EVENT_ONLY = frozenset({"arrivals"})

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
    latency tracking — the event-tier-only serving path.
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
    events = 0
    cycles = 0.0
    for _ in range(max(1, repeat)):
        system = build()
        t0 = time.perf_counter()
        result = system.run()
        wall = time.perf_counter() - t0
        events = system.engine.events_processed
        cycles = result.cycles
        samples.append(events / wall if wall > 0 else 0.0)
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "tier": tier,
        "wall_s": best_wall,
        "events": events,
        "events_per_sec": statistics.median(samples),
        "cycles": cycles,
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
        scenario_tiers = tuple(t for t in tiers if t == "event") \
            if name in EVENT_ONLY else tiers
        for tier in scenario_tiers:
            out[scenario_key(name, tier)] = bench_scenario(
                benchmark_abbr, mode, scale, repeat,
                tier=tier, counters=counters,
                arrivals=name in EVENT_ONLY)
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
    tiers.  Keys are the bare scenario names; empty when the record holds
    only one of the tiers (e.g. a pre-tier baseline)."""
    speedups = {}
    for scenario, row in data.items():
        if scenario.startswith("_") or "[" in scenario:
            continue
        batch = data.get(scenario_key(scenario, "batch"))
        if batch is None:
            continue
        if row["events_per_sec"] > 0:
            speedups[scenario] = \
                batch["events_per_sec"] / row["events_per_sec"]
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
    """Regression check: events/sec per scenario against a baseline record.

    Args:
        current: freshly measured payload (:func:`run_bench` shape).
        baseline: previously committed payload (any schema version — only
            ``events_per_sec`` is read).
        max_regress: allowed fractional slowdown (0.30 = current may be up
            to 30% slower before it counts as a regression — headroom for
            machine-to-machine and CI-runner variance).

    Returns:
        Human-readable failure strings, empty when everything holds.
        Scenarios present only on one side are reported as failures (a
        silently dropped scenario would otherwise pass forever).
    """
    failures = []
    for scenario, base_row in baseline.items():
        if scenario.startswith("_"):
            continue
        cur_row = current.get(scenario)
        if cur_row is None:
            failures.append(f"{scenario}: missing from current run")
            continue
        base_eps = base_row["events_per_sec"]
        cur_eps = cur_row["events_per_sec"]
        floor = base_eps * (1.0 - max_regress)
        if cur_eps < floor:
            failures.append(
                f"{scenario}: {cur_eps:,.0f} events/s is more than "
                f"{max_regress:.0%} below baseline {base_eps:,.0f}")
    for scenario in current:
        if not scenario.startswith("_") and scenario not in baseline:
            failures.append(f"{scenario}: not present in baseline")
    return failures
