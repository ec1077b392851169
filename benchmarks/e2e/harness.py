"""Workloads, measurement loop and output checks of the end-to-end benchmark.

A run drives one workload through the three surfaces a user of this
repository waits on, one operation at a time from this process:

1. **library** -- ``GPUSystem`` simulations in this process, on the tier
   ``experiment_config()`` picks and on the accelerated tier (the first of
   ``batch``, ``fastpath`` that validates and installs);
2. **campaign** -- the workload's ``python -m repro`` command with
   ``--jobs 2`` against an empty cache directory, then against the warm one;
3. **service** -- ``repro serve --workers 2`` on that warm cache: round
   trips for stored results, then a batch of fresh specs.

A run does one library pass, then ``Budget.cycles`` campaign-and-service
cycles, then more library passes while its time budget lasts.  Host times
are in reference seconds (see clock.py).  Every operation is checked (see
:class:`Ledger`); the end-to-end metrics are medians over the run's
repeats.  A traced run does the same work once under ``cProfile`` and
span wrappers and reports the per-layer metrics instead.

``--seed N`` renames every in-process trace to ``<name>/seed<N>``, which
reseeds its generator, and seeds the arrival process and the order in
which specs reach the service.  Seed 0 keeps the canonical traces, so the
in-process results must equal what the campaign stored.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import pstats
import random
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from statistics import median
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.cli import main as repro_main
from repro.consolidate import arrival_times
from repro.experiments.campaign import RunSpec, spec_from_mix
from repro.experiments.fig11_adaptive_performance import specs as fig11_specs
from repro.experiments.store import ResultStore
from repro.gpu.system import GPUSystem
from repro.scenario import ProgramSpec, Scenario
from repro.service.client import ServiceClient, ServiceError
from repro.workloads import CATEGORIES, benchmark, generate_workload
from repro.workloads.multiprogram import ADDRESS_SPACE_STRIDE

import layers
from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Campaign pool and job-server worker count (the host it was sized on
#: has 2 cores).
#: The run pins itself, and so every process it starts, to one core (see
#: clock.py): the workers share it and the code paths stay the ones users
#: run.
JOBS = 2
ACCEL_TIERS = ("batch", "fastpath")
MODES = ("shared", "private", "adaptive")
CLI_TIMEOUT = 120.0
SERVICE_TIMEOUT = 60.0
#: Job-state poll interval of the service batch.
POLL_S = 0.02
#: Service hits per timed block.
HIT_CHUNK = 50

#: End-to-end metric -> unit (every workload reports every one).
END_TO_END = {
    "setup_s": "s",
    "sim_kips": "kinstr/s",
    "sim_kips.accel": "kinstr/s",
    "campaign_cold_s": "s",
    "campaign_warm_s": "s",
    "service_hit_ms.p50": "ms",
    "service_batch_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit, reported by the traced run.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "gpu.build_s": "s",
    "gpu.instructions": "count",
    "cache.llc_accesses": "count",
    "cache.llc_hit_ratio": "ratio",
    "cache.l1_miss_rate": "ratio",
    "cache.mshr_stalls": "count",
    "noc.response_flits": "flits",
    "noc.gated_cycles": "cycles",
    "mem.dram_reads": "count",
    "mem.dram_writes": "count",
    "policy.transitions": "count",
    "policy.private_time_frac": "ratio",
    "workloads.trace_s": "s",
    "experiments.sims": "count",
    "experiments.prefetch_s": "s",
    "experiments.store_write_ms": "ms",
    "experiments.store_read_ms": "ms",
    "service.start_s": "s",
    "service.submit_ms": "ms",
    "service.fetch_ms": "ms",
    "service.polls_per_job": "count",
    "service.executed": "count",
    "service.coalesced": "count",
    "trace.overhead": "ratio",
}


# --------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    """One input mix.  Every callable takes the run's seed.

    Attributes:
        command: ``repro`` verb and arguments of the campaign surface
            (``--jobs``/``--cache-dir``/``--out`` are added by the run).
        specs: the specs that command declares.
        library: the specs simulated in-process (a subset of ``specs``).
        accesses: in-process trace length per benchmark; at seed 0 these
            reproduce the campaign's traces exactly.
        batch: fresh specs for the service batch (never in the store).
    """

    name: str
    why: str
    command: Callable[[int], list]
    specs: Callable[[int], list]
    library: Callable[[int], list]
    accesses: dict
    batch: Callable[[int], list]


def solo(name: str, why: str, accesses: dict, scale: float,
         batch_scale: float) -> Workload:
    """Each benchmark alone under each of the paper's three policies."""
    abbrs = tuple(accesses)

    def at(s: float) -> list:
        return [RunSpec.single(a, m, scale=s) for a in abbrs for m in MODES]

    return Workload(
        name, why,
        command=lambda seed: ["sweep", "--benchmarks", ",".join(abbrs),
                              "--modes", ",".join(MODES),
                              "--scale", str(scale)],
        specs=lambda seed: at(scale), library=lambda seed: at(scale),
        accesses=accesses, batch=lambda seed: at(batch_scale))


MIX = "VA:adaptive+GEMM:hysteresis+SN:private+LUD:shared"
ARRIVALS = "poisson:gap=1500"


def consolidation(name: str, why: str, accesses_each: int, scale: float,
                  batch_scale: float) -> Workload:
    """The four-tenant mix under seeded Poisson admissions."""

    def at(s: float, seed: int) -> list:
        return [spec_from_mix(MIX, scale=s, arrivals=ARRIVALS, seed=seed)]

    return Workload(
        name, why,
        command=lambda seed: ["run", "--mix", MIX, "--arrivals", ARRIVALS,
                              "--seed", str(seed), "--scale", str(scale)],
        specs=lambda seed: at(scale, seed),
        library=lambda seed: at(scale, seed),
        accesses={entry.split(":")[0]: accesses_each
                  for entry in MIX.split("+")},
        batch=lambda seed: at(batch_scale, seed))


def campaign(name: str, why: str, scale: float, by_category: dict,
             batch_scale: float) -> Workload:
    """Figure 11's report: 17 benchmarks x 3 policies of short runs."""
    accesses = {abbr: by_category[cat]
                for cat, abbrs in CATEGORIES.items() for abbr in abbrs}

    def adaptive(s: float) -> list:
        return [RunSpec.single(a, "adaptive", scale=s) for a in accesses]

    return Workload(
        name, why,
        command=lambda seed: ["report", "--figures", "11",
                              "--scale", str(scale)],
        specs=lambda seed: fig11_specs(scale=scale),
        library=lambda seed: adaptive(scale), accesses=accesses,
        batch=lambda seed: adaptive(batch_scale))


WORKLOADS = {w.name: w for w in (
    solo("solo-stream",
         "VA alone at medium scale: streaming that misses the LLC 99% of "
         "the time, so DRAM and the reply path do the work",
         {"VA": 37_500}, scale=0.25, batch_scale=0.05),
    solo("solo-reuse",
         "GEMM, SN and AN at medium scale: LLC hits, NoC traffic and "
         "controller transitions do the work while DRAM idles",
         {"GEMM": 20_000, "SN": 25_000, "AN": 25_000}, scale=0.25,
         batch_scale=0.05),
    consolidation("consolidation-open",
                  "four tenants admitted by Poisson arrivals with latency "
                  "tracking and mixed policies; the accelerated tiers "
                  "decline here",
                  30_000, scale=0.5, batch_scale=0.1),
    # The batch scale only has to hash apart from the report's specs;
    # 0.021 keeps the traces at the report's size.
    campaign("campaign",
             "the Figure 11 report's 51 short runs: set-up, result store, "
             "worker pool and rendering weigh as much as simulation",
             scale=0.02, by_category={"shared": 2_000, "private": 2_000,
                                      "neutral": 3_000},
             batch_scale=0.021),
)}


@dataclass(frozen=True)
class Budget:
    """How much a run repeats.  Tests shrink it; the CLI sets ``seconds``.

    A cycle is one cold campaign, its warm reruns, and one service session
    (hits, then a batch) on the warm cache.
    """

    seconds: float = 20.0
    setups: int = 9
    cycles: int = 2
    warm_repeats: int = 4
    hit_samples: int = 150


# ------------------------------------------------------------------ checks
class Ledger:
    """Operations attempted and failed; ``failed`` in the output line.

    A library run, a campaign command, and a service request or job each
    count as one operation, and fail on the first broken check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def digest(result_dict: dict) -> str:
    """Content digest of a ``RunResult.to_dict()`` payload."""
    return hashlib.sha256(json.dumps(result_dict, sort_keys=True)
                          .encode()).hexdigest()


def check_library_run(ledger: Ledger, label: str, system: GPUSystem,
                      result, instructions: float, result_digest: str,
                      reference: Optional[str]) -> bool:
    """Count one in-process run, failed on any broken output check.

    ``reference`` is the digest the result must reproduce: the spec's
    first run in this process (same tier or the default tier).
    """
    problems = []
    if reference is not None and result_digest != reference:
        problems.append("RunResult digest differs from the first run's")
    if not math.isclose(result.instructions, instructions, rel_tol=1e-9):
        problems.append(f"{result.instructions} instructions retired, "
                        f"trace holds {instructions}")
    if result.llc_hits + result.llc_misses != result.llc_accesses:
        problems.append("LLC hits + misses != accesses")
    if any(sm.mshr.outstanding for sm in system.sms):
        problems.append("MSHRs not drained")
    if not system.engine.drained():
        problems.append("engine not drained")
    return ledger.check(not problems, f"{label}: {'; '.join(problems)}")


# ------------------------------------------------------------------- a run
def variant(abbr: str, seed: int):
    """The benchmark's trace spec; seed N > 0 renames (and so reseeds) it."""
    spec = benchmark(abbr)
    if seed == 0:
        return spec
    return dataclasses.replace(spec, name=f"{spec.name}/seed{seed}")


def tenants(spec: RunSpec) -> list:
    """``(benchmark, policy, params)`` per program of a spec."""
    params = dict(spec.policy_params) or None
    out = [(spec.benchmark, spec.mode, params)]
    if spec.pair_with is not None:
        if spec.mode_b is not None:
            out.append((spec.pair_with, spec.mode_b,
                        dict(spec.policy_params_b) or None))
        else:
            out.append((spec.pair_with, spec.mode, params))
    out.extend((abbr, mode, dict(p) or None) for abbr, mode, p in spec.extra)
    return out


@dataclass
class Outcome:
    """A finished run: ``metrics`` maps name -> (value, unit, samples)."""

    workload: str
    seed: int
    traced: bool
    metrics: dict
    ledger: Ledger
    accel_tier: str
    accel_installed: str
    trace_digest: str
    speed: float
    trace_file: Optional[Path] = None


class Session:
    """State of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, budget: Budget,
                 work: Path, tracer: Optional[layers.Tracer] = None):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.work = work
        self.tracer = tracer
        self.ledger = Ledger()
        self.rng = random.Random(seed)
        self.specs = workload.specs(seed)
        self.library = workload.library(seed)
        self.samples: dict[str, list] = {
            name: [] for name in (*END_TO_END, "service.start_s")}
        self.digests: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self.trace_hash = hashlib.sha256()
        self.service_stats: dict = {}
        self.batch_jobs = 0
        self.clock = ReferenceClock()
        self.accel_tier = ""
        self.accel_installed = ""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env

    # ---------------------------------------------------------- tracing
    def span(self, name: str, layer: str):
        return self.tracer.span(name, layer) if self.tracer else nullcontext()

    def quiet(self):
        """The driver's own store reads are not the program's."""
        return self.tracer.suspended() if self.tracer else nullcontext()

    # ---------------------------------------------------------- library
    def traces(self, spec: RunSpec, record: bool = False) -> list:
        entries = tenants(spec)
        ctas = 2 * spec.cfg.num_sms // len(entries)
        out = []
        for i, (abbr, _, _) in enumerate(entries):
            with self.span("generate_workload", "workloads"):
                out.append(generate_workload(
                    variant(abbr, self.seed), num_ctas=ctas,
                    total_accesses=self.workload.accesses[abbr],
                    max_kernels=spec.max_kernels,
                    address_offset=i * ADDRESS_SPACE_STRIDE))
        if record:
            for wl in out:
                for kernel in wl.kernels:
                    for cta in kernel.ctas:
                        self.trace_hash.update(
                            repr((cta.keys, cta.writes)).encode())
        return out

    def build(self, spec: RunSpec, traces: list, tier: str) -> GPUSystem:
        cfg = spec.cfg.replace(tier=tier)
        entries = tenants(spec)
        if len(entries) == 1:
            (_, mode, params), = entries
            return GPUSystem(cfg, traces[0], policy=mode,
                             policy_params=params)
        scenario = Scenario(
            [ProgramSpec(wl, mode, params)
             for wl, (_, mode, params) in zip(traces, entries)],
            placement=spec.placement,
            arrival_times=arrival_times(spec.arrivals, len(entries),
                                        spec.seed),
            track_latency=True)
        return GPUSystem(cfg, scenario)

    def pick_accel_tier(self) -> None:
        """First accelerated tier that validates and installs; when none
        installs (consolidation), the first that validates, which then
        runs declined."""
        spec = self.library[0]
        traces = self.traces(spec)
        for tier in ACCEL_TIERS:
            try:
                spec.cfg.replace(tier=tier).validate()
            except ValueError:
                continue
            installed = self.build(spec, traces, tier).tier
            if not self.accel_tier or installed == tier:
                self.accel_tier, self.accel_installed = tier, installed
            if installed == tier:
                return
        if not self.accel_tier:
            self.accel_tier = self.accel_installed = spec.cfg.tier

    def library_pass(self, counts: bool = False) -> float:
        """Simulate every library spec on both tiers; returns the default
        tier's summed run time.  ``counts`` records the simulated counters
        of the default-tier runs."""
        tiers = (self.library[0].cfg.tier, self.accel_tier)
        instructions = dict.fromkeys(tiers, 0.0)
        wall = dict.fromkeys(tiers, 0.0)
        for spec in self.library:
            label = spec.label()
            gc.collect()
            try:
                with self.clock.timed() as setup:
                    traces = self.traces(spec, record=counts)
                    systems = [(t, self.build(spec, traces, t))
                               for t in tiers]
            except Exception as exc:
                self.ledger.check(False, f"{label}: set-up raised {exc!r}")
                continue
            self.samples["setup_s"].append(setup.seconds)
            runs = []
            for tier, system in systems:
                try:
                    with self.clock.timed() as timed:
                        result = system.run()
                except Exception as exc:
                    self.ledger.check(False,
                                      f"{label}[{tier}]: raised {exc!r}")
                    continue
                runs.append((tier, system, result, timed.seconds))
            total = sum(wl.total_instructions for wl in traces)
            for tier, system, result, dt in runs:
                d = digest(result.to_dict())
                reference = self.digests.setdefault(spec.cache_key(), d)
                if not check_library_run(self.ledger, f"{label}[{tier}]",
                                         system, result, total, d,
                                         reference):
                    continue
                instructions[tier] += result.instructions
                wall[tier] += dt
                if counts and tier == tiers[0]:
                    self.count(system, result, dt)
        for name, tier in (("sim_kips", tiers[0]),
                           ("sim_kips.accel", tiers[1])):
            if wall[tier] > 0:
                self.samples[name].append(instructions[tier] / wall[tier]
                                          / 1e3)
        return wall[tiers[0]]

    def count(self, system: GPUSystem, result, wall: float) -> None:
        add = {
            "run_s": wall,
            "events": system.engine.events_processed,
            "instructions": result.instructions,
            "llc_accesses": result.llc_accesses,
            "llc_hits": result.llc_hits,
            "l1_miss_rate_sum": result.l1_miss_rate,
            "runs": 1,
            "mshr_stalls": sum(sm.mshr.stalls for sm in system.sms),
            "response_flits": result.llc_response_flits,
            "gated_cycles": result.gated_cycles,
            "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes,
            "transitions": result.transitions,
            "time_in_private": result.time_in_private,
            "cycles": result.cycles,
        }
        for key, value in add.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def top_up_setups(self) -> None:
        """Extra set-ups (trace generation plus both builds, no run) until
        the median has enough samples."""
        i = 0
        while len(self.samples["setup_s"]) < self.budget.setups:
            spec = self.library[i % len(self.library)]
            i += 1
            gc.collect()
            with self.clock.timed() as setup:
                traces = self.traces(spec)
                for tier in (spec.cfg.tier, self.accel_tier):
                    self.build(spec, traces, tier)
            self.samples["setup_s"].append(setup.seconds)

    # --------------------------------------------------------- campaign
    def repro(self, args: list) -> tuple:
        """Run ``python -m repro ARGS``: a subprocess, or in-process under
        the traced run so the profile sees the campaign and store layers.
        Returns ``(exit code, stdout, stderr tail, reference seconds)``."""
        try:
            with self.clock.timed() as timed:
                if self.tracer is None:
                    proc = subprocess.run(
                        [sys.executable, "-m", "repro", *args], cwd=ROOT,
                        env=self.env, capture_output=True, text=True,
                        timeout=CLI_TIMEOUT)
                    code, out = proc.returncode, proc.stdout
                    err = proc.stderr[-500:]
                else:
                    buf = io.StringIO()
                    with redirect_stdout(buf):
                        code = repro_main(args)
                    out, err = buf.getvalue(), ""
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {CLI_TIMEOUT:g}s", 0.0
        return code, out, err, timed.seconds

    @staticmethod
    def output_of(stdout: str, cache: Path) -> str:
        """What a warm rerun must reproduce: result rows on stdout (not
        the bracketed progress lines) and any report ``rows.json``."""
        rows = [line for line in stdout.splitlines()
                if not line.startswith("[")]
        for path in sorted(cache.glob("report/*/rows.json")):
            rows.append(path.read_text(encoding="utf-8"))
        return "\n".join(rows)

    @staticmethod
    def records(cache: Path) -> dict:
        return {p.stem: p.stat().st_mtime_ns for p in cache.glob("*.json")}

    def campaign_phase(self, cache: Path) -> None:
        args = [*self.workload.command(self.seed), "--jobs", str(JOBS),
                "--cache-dir", str(cache)]
        if args[0] == "report":
            args += ["--out", str(cache / "report")]
        verb = f"repro {args[0]}"
        code, out, err, wall = self.repro(args)
        if not self.ledger.check(code == 0,
                                 f"cold {verb} exited {code}: {err}"):
            return
        self.samples["campaign_cold_s"].append(wall)
        expected = {s.cache_key() for s in self.specs}
        stored = self.records(cache)
        self.ledger.check(set(stored) == expected,
                          f"cold {verb} stored {len(stored)} records for "
                          f"{len(expected)} declared specs")
        reference = self.output_of(out, cache)
        for _ in range(self.budget.warm_repeats):
            code, out, err, wall = self.repro(args)
            ok = (code == 0 and self.output_of(out, cache) == reference
                  and self.records(cache) == stored)
            if self.ledger.check(ok, f"warm {verb} exited {code} or "
                                     f"changed its output or store: {err}"):
                self.samples["campaign_warm_s"].append(wall)
        if self.seed == 0:
            store = ResultStore(str(cache))
            with self.quiet():
                for spec in self.library:
                    stored_result = store.load(spec.cache_key())
                    self.ledger.check(
                        stored_result is not None
                        and digest(stored_result.to_dict())
                        == self.digests.get(spec.cache_key()),
                        f"{spec.label()}: in-process result differs from "
                        f"the campaign's")

    # ---------------------------------------------------------- service
    def service_phase(self, cache: Path) -> None:
        with open(self.work / "serve.log", "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(JOBS), "--cache-dir", str(cache)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=log,
                text=True)
            try:
                self.serve(proc, t0, cache)
            finally:
                # SIGINT lets the server shut its worker pool down.
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
                    try:
                        proc.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                proc.stdout.close()

    def serve(self, proc: subprocess.Popen, t0: float, cache: Path) -> None:
        """Wait for ``/healthz`` (the service's set-up), then the hit and
        batch phases."""
        ready, _, _ = select.select([proc.stdout], [], [], SERVICE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^\s:]+:(\d+)", line)
        if not self.ledger.check(match is not None,
                                 f"repro serve did not start: {line!r}"):
            return
        client = ServiceClient(port=int(match.group(1)), client="e2e-bench",
                               timeout=SERVICE_TIMEOUT)
        deadline = time.perf_counter() + SERVICE_TIMEOUT
        while True:
            try:
                client.healthz()
                break
            except (ServiceError, OSError) as exc:
                if time.perf_counter() > deadline:
                    self.ledger.check(False, f"healthz: {exc!r}")
                    return
                time.sleep(0.01)
        self.samples["service.start_s"].append(time.perf_counter() - t0)
        self.hit_phase(client, cache)
        self.batch_phase(client, cache)

    def stored_payloads(self, cache: Path, specs: list) -> dict:
        store = ResultStore(str(cache))
        out = {}
        with self.quiet():
            for spec in specs:
                result = store.load(spec.cache_key())
                out[spec.cache_key()] = (result.to_dict()
                                         if result is not None else None)
        return out

    def hit_phase(self, client: ServiceClient, cache: Path) -> None:
        """Round trips for results already in the store, in seed order,
        ``HIT_CHUNK`` to a timed block."""
        expected = self.stored_payloads(cache, self.specs)
        order = list(self.specs)
        self.rng.shuffle(order)
        sequence = order * math.ceil(self.budget.hit_samples / len(order))
        for start in range(0, len(sequence), HIT_CHUNK):
            latencies = []
            with self.clock.timed() as chunk:
                for spec in sequence[start:start + HIT_CHUNK]:
                    key = spec.cache_key()
                    try:
                        spent = self.clock.spent
                        t0 = time.perf_counter()
                        reply = client.submit_spec(spec)
                        if reply["state"] == "done":
                            payload = client.result(reply["id"])
                        else:
                            payload = client.wait(reply["id"],
                                                  timeout=SERVICE_TIMEOUT,
                                                  poll_interval=POLL_S)
                        dt = (time.perf_counter() - t0
                              - (self.clock.spent - spent))
                    except (ServiceError, OSError) as exc:
                        self.ledger.check(False,
                                          f"hit {spec.label()}: {exc!r}")
                        continue
                    if self.ledger.check(
                            reply["id"] == key and expected[key] is not None
                            and payload == expected[key],
                            f"hit {spec.label()}: result differs from the "
                            f"store"):
                        latencies.append(dt * 1e3)
            self.samples["service_hit_ms.p50"] += [ms * chunk.factor
                                                   for ms in latencies]

    def batch_phase(self, client: ServiceClient, cache: Path) -> None:
        """Fresh specs in seed order, each submitted twice; the makespan
        runs from the first submit to the last result fetched."""
        fresh = self.workload.batch(self.seed)
        self.rng.shuffle(fresh)
        keys = {s.cache_key() for s in fresh}
        self.batch_jobs = len(keys)
        payloads = {}
        deadline = time.perf_counter() + SERVICE_TIMEOUT
        try:
            with self.clock.timed() as makespan:
                ids = [client.submit_spec(spec)["id"]
                       for _ in range(2) for spec in fresh]
                for job_id in dict.fromkeys(ids):
                    remaining = max(deadline - time.perf_counter(), 0.0)
                    payloads[job_id] = client.wait(job_id, timeout=remaining,
                                                   poll_interval=POLL_S)
        except (ServiceError, OSError) as exc:
            self.ledger.check(False, f"batch: {exc!r}")
            return
        ok = True
        stored = self.stored_payloads(cache, fresh)
        for spec in fresh:
            key = spec.cache_key()
            ok &= self.ledger.check(
                payloads.get(key) is not None
                and payloads[key] == stored[key],
                f"batch {spec.label()}: result missing or differs from "
                f"the store")
        try:
            self.service_stats = client.stats()["jobs"]
        except (ServiceError, OSError) as exc:
            self.ledger.check(False, f"stats: {exc!r}")
            return
        executed = self.service_stats.get("executed")
        ok &= self.ledger.check(
            executed == len(keys),
            f"/stats executed {executed}, expected {len(keys)} fresh specs")
        if ok:
            self.samples["service_batch_s"].append(makespan.seconds)

    # ------------------------------------------------------------ metrics
    def end_to_end(self) -> dict:
        """Median of every end-to-end metric's samples, plus peak memory."""
        out = {name: (median(v), END_TO_END[name], len(v))
               for name, v in self.samples.items()
               if name in END_TO_END and v}
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out["peak_rss_mb"] = (rss_kb / 1024.0, "MB", 1)
        return out

    def per_layer(self, self_s: dict, overhead: float) -> dict:
        c = self.counts
        t = self.tracer
        stats = self.service_stats

        def ms(name: str) -> float:
            return median(t.durations(name)) * 1e3

        values = {
            **{f"{layer}.self_s": self_s[layer] for layer in layers.LAYERS},
            "sim.events": c["events"],
            "sim.host_ns_per_event": c["run_s"] / c["events"] * 1e9,
            "gpu.build_s": median(t.durations("GPUSystem.__init__")),
            "gpu.instructions": c["instructions"],
            "cache.llc_accesses": c["llc_accesses"],
            "cache.llc_hit_ratio": c["llc_hits"] / c["llc_accesses"],
            "cache.l1_miss_rate": c["l1_miss_rate_sum"] / c["runs"],
            "cache.mshr_stalls": c["mshr_stalls"],
            "noc.response_flits": c["response_flits"],
            "noc.gated_cycles": c["gated_cycles"],
            "mem.dram_reads": c["dram_reads"],
            "mem.dram_writes": c["dram_writes"],
            "policy.transitions": c["transitions"],
            "policy.private_time_frac": c["time_in_private"] / c["cycles"],
            "workloads.trace_s": median(t.durations("generate_workload")),
            "experiments.sims": len(t.durations("ResultStore.store")),
            "experiments.prefetch_s": t.durations("Campaign.prefetch")[0],
            "experiments.store_write_ms": ms("ResultStore.store"),
            "experiments.store_read_ms": ms("ResultStore.load"),
            "service.start_s": self.samples["service.start_s"][0],
            "service.submit_ms": ms("ServiceClient.submit"),
            "service.fetch_ms": ms("ServiceClient.result"),
            "service.polls_per_job": (len(t.durations("ServiceClient.job"))
                                      / self.batch_jobs),
            "service.executed": stats["executed"],
            "service.coalesced": stats["coalesced"],
            "trace.overhead": overhead,
        }
        return {name: (v, PER_LAYER[name], 1) for name, v in values.items()}


# -------------------------------------------------------------- entry point
def run(workload: Workload, seed: int, budget: Budget = Budget(),
        trace: bool = False) -> Outcome:
    """One benchmark run; raises only when the run cannot produce metrics
    (the checks that fail are counted in the outcome's ledger)."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    session = Session(workload, seed, budget, work,
                      layers.Tracer() if trace else None)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        if trace:
            metrics, trace_file = _traced(session)
        else:
            metrics, trace_file = _untraced(session), None
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
    return Outcome(workload.name, seed, trace, metrics, session.ledger,
                   session.accel_tier, session.accel_installed,
                   session.trace_hash.hexdigest(),
                   median(session.clock.factors), trace_file)


def _cycle(session: Session, index: int) -> None:
    """Cold and warm campaign, then a service session, on a fresh cache."""
    cache = session.work / f"cache{index}"
    session.campaign_phase(cache)
    session.service_phase(cache)
    shutil.rmtree(cache, ignore_errors=True)


def _untraced(session: Session) -> dict:
    start = time.perf_counter()
    session.pick_accel_tier()
    session.library_pass(counts=True)
    for index in range(session.budget.cycles):
        _cycle(session, index)
    while time.perf_counter() - start < session.budget.seconds:
        session.library_pass()
    session.top_up_setups()
    metrics = session.end_to_end()
    missing = sorted(set(END_TO_END) - set(metrics))
    if missing:
        raise RuntimeError(f"no samples for {', '.join(missing)}; "
                           f"failures: {session.ledger.failures}")
    return metrics


@functools.cache
def _unprofiled_forks() -> None:
    """Campaign pool workers fork from the traced process; profiling them
    only slows them down, since their stats never come back."""
    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))


def _traced(session: Session) -> tuple:
    """One untraced library pass (counters, and the wall time the
    overhead is taken against), then one pass through every surface under
    ``cProfile`` and the span wrappers."""
    _unprofiled_forks()
    session.pick_accel_tier()
    untraced_wall = session.library_pass(counts=True)
    tracer = session.tracer
    profile = cProfile.Profile()
    tracer.install()
    profile.enable()
    try:
        traced_wall = session.library_pass()
        _cycle(session, 0)
    finally:
        profile.disable()
        tracer.uninstall()
    self_s = dict.fromkeys(layers.LAYERS, 0.0)
    try:
        self_s = layers.fold(pstats.Stats(profile).stats)
    except layers.UnmappedFrames as exc:
        session.ledger.check(False, str(exc))
    trace_file = WORK / (f"trace-{session.workload.name}"
                         f"-seed{session.seed}.json")
    trace_file.write_text(json.dumps(
        {"workload": session.workload.name, "seed": session.seed,
         "self_s": self_s, "spans": tracer.spans}, indent=1),
        encoding="utf-8")
    return session.per_layer(self_s, traced_wall / untraced_wall), trace_file
