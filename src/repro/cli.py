"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        simulate one benchmark under one LLC policy, or a
               two-program mix with per-program policies
               (``--mix GEMM:paper-adaptive+SN:static-private``)
``bench``      time the simulator hot path and write BENCH_hotpath.json
``compare``    one benchmark under all three classic policies, side by side
``figure``     regenerate a paper figure (2, 3, 7, 11, 12, 13, 14, 15, 16),
               a named experiment (``policy_shootout``), or everything at
               once (``figure all``)
``report``     run the whole campaign and build the HTML+Markdown paper
               artifact with per-figure fidelity badges
``sweep``      declarative campaign sweep over benchmarks x policies x
               config overrides; ``--pairs A+B [--policy-b NAME]``
               sweeps two-program mixes instead of singles
``serve``      run the campaign job server: an async HTTP/JSON job API
               (``POST /jobs`` → poll → ``GET /results/<key>``) sharding
               queued specs over worker processes, content-key
               idempotent, sharing the on-disk result store
``policy``     ``policy list`` / ``policy show NAME``: the LLC-policy
               registry with parameter schemas
``tables``     print Tables 1 and 2
``catalog``    list the benchmark suite with its category parameters
``analyze``    characterize a generated workload trace

``run``, ``compare``, ``figure``, ``report`` and ``sweep`` accept
``--jobs N`` (fan the simulations out over N worker processes) and
``--cache-dir DIR`` (memoize finished runs on disk, keyed by the content
hash of the full run spec, so repeated figures and overlapping sweeps
never re-simulate).  ``--scale`` takes a float or a named preset
(``smoke``/``small``/``medium``/``paper``).  Policies are given as
``NAME[:key=value,...]`` (``repro policy list`` shows the registry), e.g.
``--policy hysteresis:dwell=3``; below ``--scale 0.25`` the interval
policies' window parameters shrink with the trace
(:func:`~repro.experiments.runner.scaled_policy_params`) unless given
explicitly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

from repro.config import PolicyConfig
from repro.experiments import FIGURE_MODULES, figure_module, figure_rows, \
    figure_sort_key
from repro.experiments.campaign import Campaign, RunSpec, spec_from_mix
from repro.experiments.runner import experiment_config, print_rows, \
    scaled_policy_params
from repro.policy import available_policies, canonical_policy_name, \
    canonical_policy_params, policy_class
from repro.scenario import parse_mix
from repro.workloads.catalog import ALL_ABBRS, BENCHMARKS, build

#: The classic triad (aliases into the policy registry), run by
#: ``compare``.
MODES = ("shared", "private", "adaptive")

#: Named trace-scale presets accepted anywhere ``--scale`` is.
SCALE_PRESETS = {
    "smoke": 0.02,   # fastest runs that still have shape (CI smoke)
    "small": 0.05,   # figures keep their qualitative trends
    "medium": 0.25,  # closer quantitative match, minutes not hours
    "paper": 1.0,    # the calibrated full-size traces
    "full": 1.0,
}


def parse_scale(text: str) -> float:
    """``--scale`` values: a positive finite float or a named preset."""
    preset = SCALE_PRESETS.get(text.lower())
    if preset is not None:
        return preset
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale {text!r} is neither a number nor one of "
            f"{sorted(set(SCALE_PRESETS))}")
    if not 0 < value < math.inf:      # also false for NaN
        raise argparse.ArgumentTypeError(
            "scale must be a positive finite number")
    return value


def _campaign_from(args: argparse.Namespace) -> Campaign:
    return Campaign(jobs=getattr(args, "jobs", 1),
                    cache_dir=getattr(args, "cache_dir", None))


def _parse_jobs(text: str) -> int:
    """``--jobs`` values: a worker count of at least one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs {text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                        help="worker processes for the simulations")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk result cache (content-keyed JSON)")


def _parse_policy_arg(text: str) -> PolicyConfig:
    """``--policy NAME[:k=v,...]`` values, name-validated against the
    registry so typos fail at parse time, not mid-simulation."""
    try:
        pc = PolicyConfig.from_spec(text)
        canonical_policy_params(pc.name, pc.params_dict())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return pc


def _scaled_policy(policy: PolicyConfig, scale: float) -> PolicyConfig:
    """Apply the trace-scale-derived window parameters (explicit
    parameters always win; non-interval policies pass through)."""
    return PolicyConfig.of(policy.name,
                           scaled_policy_params(policy.name, scale,
                                                policy.params_dict()))


def _parse_mix_arg(text: str) -> list[tuple[str, PolicyConfig]]:
    """``--mix`` values: ``BENCH[:POLICY[:k=v,...]]+BENCH[...]``, with
    benchmarks checked against the catalog and policies against the
    registry at parse time."""
    try:
        entries = parse_mix(text)
        for abbr, policy in entries:
            if abbr not in BENCHMARKS:
                raise ValueError(f"unknown benchmark {abbr!r} in mix "
                                 f"(see `repro catalog`)")
            if policy is not None:
                canonical_policy_params(policy.name, policy.params_dict())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return entries


def _consolidation_spec_arg(registry: str) -> Callable[[str], str]:
    """Parser of ``--arrivals``/``--placement NAME[:k=v,...]`` values: the
    spec is checked against the :mod:`repro.consolidate` registry named
    ``registry`` at parse time, and the spec text itself is what travels.
    The package is imported on first use, so other verbs never load it."""

    def parse(text: str) -> str:
        from repro import consolidate

        try:
            getattr(consolidate, registry).from_spec(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return text

    return parse


def _cmd_run(args: argparse.Namespace) -> int:
    sources = sum(x is not None
                  for x in (args.benchmark, args.mix, args.tenants))
    if sources != 1:
        print("error: pass exactly one of a benchmark, --mix, or "
              "--tenants", file=sys.stderr)
        return 2
    default_policy = args.policy if args.policy is not None \
        else PolicyConfig.of("adaptive")
    campaign = _campaign_from(args)
    if args.tenants is not None:
        # Seeded Monte Carlo mix: sample one benchmark per tenant from
        # the catalog categories, then run it like an explicit --mix.
        from repro.consolidate.mixgen import sample_mix

        try:
            abbrs = sample_mix(args.tenants, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args.mix = [(abbr, None) for abbr in abbrs]
    if args.mix is not None:
        return _run_mix(args, campaign, default_policy)
    if args.arrivals is not None or args.placement is not None:
        print("error: --arrivals/--placement need a multi-program run "
              "(--mix or --tenants)", file=sys.stderr)
        return 2
    policy = _scaled_policy(default_policy, args.scale)
    res = campaign.result(RunSpec.single(args.benchmark, policy,
                                         scale=args.scale))
    # Report the spec as executed (scale-derived window parameters
    # included), matching the --mix path and the cached RunSpec key.
    print(f"{args.benchmark} [{policy.spec()}]: IPC {res.ipc:.2f} "
          f"over {res.cycles:.0f} cycles")
    print(f"  LLC: miss rate {res.llc_miss_rate:.3f}, response rate "
          f"{res.llc_response_rate:.2f} flits/cycle")
    print(f"  DRAM: {res.dram_reads} reads, {res.dram_writes} writes")
    if res.transitions or res.time_in_private:
        print(f"  policy: {res.transitions} transitions, "
              f"{res.time_in_private / res.cycles:.0%} time private")
    return 0


def _run_mix(args: argparse.Namespace, campaign: Campaign,
             default_policy: PolicyConfig) -> int:
    """``repro run --mix A:policy+B:policy``: a per-program-policy
    scenario through the campaign."""
    # One conversion shared with the service wire format: the spec (and
    # therefore the content key) of a mix is the same no matter which
    # surface declared it.
    try:
        spec = spec_from_mix(args.mix, scale=args.scale,
                             default_policy=default_policy,
                             arrivals=args.arrivals,
                             placement=args.placement, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = spec.program_entries()
    res = campaign.result(spec)
    print(f"{res.workload} [{res.mode}]: IPC {res.ipc:.2f} over "
          f"{res.cycles:.0f} cycles")
    print(f"  LLC: miss rate {res.llc_miss_rate:.3f}, response rate "
          f"{res.llc_response_rate:.2f} flits/cycle")
    if res.programs:
        for (abbr, policy_spec), stats in zip(entries, res.programs):
            line = f"  {stats.name} [{stats.policy or policy_spec}]: " \
                   f"IPC {stats.ipc:.2f}"
            if stats.policy:
                # Per-program transition counts exist only for
                # heterogeneous runs; a homogeneous mix collapses to the
                # legacy one-policy path, whose per-program breakdown
                # would print a fabricated 0 (the aggregate line below
                # carries the real total).
                line += f", {stats.transitions} transitions"
            if stats.admitted_at is not None:
                line += f", admitted @{stats.admitted_at:.0f}"
            if stats.latency is not None:
                line += (f", latency p50/p95/p99 "
                         f"{stats.latency['p50']:.0f}/"
                         f"{stats.latency['p95']:.0f}/"
                         f"{stats.latency['p99']:.0f}")
            print(line)
        if any(s.latency is not None for s in res.programs):
            from repro.consolidate.metrics import jains_fairness

            fairness = jains_fairness([s.ipc for s in res.programs])
            print(f"  fairness: Jain's index {fairness:.3f} over "
                  f"per-tenant IPC")
    else:
        # One-entry mix: a single-program run, reported as one program.
        (abbr, policy_spec), = entries
        print(f"  {abbr} [{policy_spec}]: IPC {res.ipc:.2f}, "
              f"{res.transitions} transitions")
    if res.transitions or res.time_in_private:
        print(f"  policy: {res.transitions} transitions, "
              f"{res.time_in_private / res.cycles:.0%} time private")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import statistics

    from repro.bench import (SCENARIOS, TIERS, compare_bench, load_bench,
                             profile_scenario, run_bench, scenario_key,
                             tier_speedups, write_bench)

    tiers = TIERS if args.tier == "both" else (args.tier,)
    data = run_bench(args.scale, benchmark_abbr=args.benchmark,
                     repeat=args.repeat, tiers=tiers)
    rows = [{"scenario": key, "tier": row["tier"],
             "wall_s": row["wall_s"], "events": row["events"],
             "kips": row["kips"], "cycles": row["cycles"]}
            for key, row in data.items() if not key.startswith("_")]
    print_rows(rows)
    write_bench(args.out, data)
    print(f"[bench] wrote {args.out}")
    if args.profile:
        profile_path = (args.out[:-len(".json")]
                        if args.out.endswith(".json") else args.out)
        profile_path += ".profile.txt"
        sections = []
        for name, mode, counters in SCENARIOS:
            for tier in tiers:
                key = scenario_key(name, tier)
                table = profile_scenario(args.benchmark, mode, args.scale,
                                         tier=tier, counters=counters,
                                         arrivals=name == "arrivals",
                                         top=args.profile_top)
                sections.append(f"==== {key} ====\n{table}")
        with open(profile_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sections))
        print(f"[bench] wrote {profile_path}")
    ok = True
    min_speedup = args.min_tier_speedup
    speedups = tier_speedups(data) if min_speedup > 0 else {}
    if min_speedup > 0 and not speedups:
        print("error: --min-tier-speedup needs both tiers timed "
              "(use --tier both)", file=sys.stderr)
        ok = False
    elif speedups:
        # Gate on the geometric mean: per-scenario ratios at small scales
        # swing wildly run to run (each sample is tens of milliseconds),
        # while the mean across scenarios is stable — and a vanished
        # speedup (the tier silently declining, a pessimized hot loop)
        # drags the mean to ~1.0 just the same.
        geomean = statistics.geometric_mean(speedups.values())
        detail = ", ".join(f"{scenario} {speedup:.2f}x"
                           for scenario, speedup in sorted(speedups.items()))
        if geomean < min_speedup:
            print(f"error: tier speedup — batch is only {geomean:.2f}x "
                  f"the event tier (geomean over scenarios, gate "
                  f"{min_speedup:.2f}x; {detail})", file=sys.stderr)
            ok = False
        else:
            print(f"[bench] batch {geomean:.2f}x event tier (geomean "
                  f"over scenarios, gate {min_speedup:.2f}x; {detail})")
    if args.baseline:
        failures = compare_bench(data, load_bench(args.baseline),
                                 max_regress=args.max_regress)
        if failures:
            for failure in failures:
                print(f"error: perf regression — {failure}", file=sys.stderr)
            ok = False
        else:
            print(f"[bench] within {args.max_regress:.0%} of "
                  f"{args.baseline}")
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    campaign = _campaign_from(args)
    specs = [RunSpec.single(args.benchmark, mode, scale=args.scale)
             for mode in MODES]
    results = campaign.results(specs)
    rows = []
    base = None
    for mode, res in zip(MODES, results):
        if base is None:
            base = res.ipc
        vs_shared = res.ipc / base if base > 0 else float("nan")
        rows.append({"mode": mode, "ipc": res.ipc, "vs_shared": vs_shared,
                     "llc_miss": res.llc_miss_rate,
                     "resp_rate": res.llc_response_rate})
    print_rows(rows)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    campaign = _campaign_from(args)
    numbers = (sorted(FIGURE_MODULES, key=figure_sort_key)
               if args.number == "all" else [args.number])
    modules = [figure_module(num) for num in numbers]
    # Declare every figure's specs up front: identical runs collapse to one
    # simulation across figures, and the whole batch shares the worker pool.
    all_specs = [spec for module in modules
                 for spec in module.specs(scale=args.scale)]
    campaign.prefetch(all_specs)
    for i, module in enumerate(modules):
        if i:
            print()
        print(module.TITLE)
        print_rows(figure_rows(module, args.scale, campaign))
    print(f"\n{_campaign_summary(campaign, all_specs)}")
    return 0


def _campaign_summary(campaign: Campaign, specs: list[RunSpec]) -> str:
    """One-line accounting: how much work the campaign declared vs ran.

    Duplicates are counted from the declared batch itself (specs whose
    content key repeats), not from the campaign's memo traffic — each
    figure re-reads its prefetched results, which is not deduplication.
    """
    duplicates = len(specs) - len({spec.cache_key() for spec in specs})
    return (f"[campaign] {campaign.executed} simulations, "
            f"{campaign.cache_hits} disk-cache hits, "
            f"{duplicates} duplicate specs merged")


def _parse_override(text: str) -> tuple[str, object]:
    """``key=value`` / ``noc.key=value`` with JSON-typed values."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw  # bare strings ("hynix") need no quoting
    return key.strip(), value


def sweep_config(overrides: list[tuple[str, object]]):
    """Scaled experiment config + dotted-path overrides, via the canonical
    serialization (``noc.channel_bytes=16``, ``adaptive.epoch_cycles=...``,
    ``dram_timing.tCL=...``, or any top-level ``GPUConfig`` field)."""
    from repro.config import GPUConfig

    data = experiment_config().to_dict()
    for key, value in overrides:
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ValueError(f"unknown config group {part!r} in {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ValueError(f"unknown config field {key!r}")
        current = node[parts[-1]]
        ok = (isinstance(value, bool) if isinstance(current, bool)
              else isinstance(value, int) and not isinstance(value, bool)
              if isinstance(current, int)
              else isinstance(value, (int, float)) and not isinstance(value, bool)
              if isinstance(current, float)
              else isinstance(value, type(current)))
        if not ok:
            raise ValueError(
                f"{key!r} expects {type(current).__name__}, "
                f"got {value!r} ({type(value).__name__})")
        if isinstance(current, float):
            # Canonicalize so `--set x=0` and `--set x=0.0` serialize (and
            # therefore content-hash) identically.
            value = float(value)
        node[parts[-1]] = value
    cfg = GPUConfig.from_dict(data)
    cfg.validate()
    return cfg


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg = sweep_config(args.set or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    benchmarks = args.benchmarks.split(",") if args.benchmarks else ALL_ABBRS
    unknown = [b for b in benchmarks if b not in BENCHMARKS]
    if unknown:
        print(f"error: unknown benchmarks {unknown}", file=sys.stderr)
        return 2
    if args.policy:
        policies = list(args.policy)  # already parsed + validated
    else:
        policies = []
        for name in args.modes.split(","):
            try:
                canonical_policy_name(name)  # registry validation only
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            policies.append(PolicyConfig.of(name))

    if args.pairs:
        return _sweep_pairs(args, cfg, policies)
    if args.policy_b is not None:
        print("error: --policy-b requires --pairs (program B of a mix)",
              file=sys.stderr)
        return 2
    campaign = _campaign_from(args)
    specs = [RunSpec.single(abbr, _scaled_policy(policy, args.scale), cfg,
                            scale=args.scale)
             for abbr in benchmarks for policy in policies]
    results = campaign.results(specs)
    rows = []
    for spec, res, policy in zip(specs, results,
                                 [p for _ in benchmarks for p in policies]):
        rows.append({
            "benchmark": spec.benchmark,
            "policy": policy.spec(),
            "ipc": res.ipc,
            "llc_miss": res.llc_miss_rate,
            "resp_rate": res.llc_response_rate,
            "time_priv": (res.time_in_private / res.cycles
                          if res.cycles else 0.0),
        })
    print_rows(rows)
    print(_campaign_summary(campaign, specs))
    return 0


def _sweep_pairs(args: argparse.Namespace, cfg, policies) -> int:
    """``sweep --pairs A+B,... [--policy-b POLICY]``: two-program mixes,
    program A sweeping the policy columns, program B pinned to
    ``--policy-b`` (default: program A's policy, the homogeneous mix)."""
    pairs = []
    for token in args.pairs.split(","):
        parts = [p.strip() for p in token.split("+")]
        if len(parts) != 2:
            print(f"error: pair {token!r} is not of the form A+B",
                  file=sys.stderr)
            return 2
        unknown = [p for p in parts if p not in BENCHMARKS]
        if unknown:
            print(f"error: unknown benchmarks {unknown}", file=sys.stderr)
            return 2
        pairs.append((parts[0], parts[1]))
    policy_b = (_scaled_policy(args.policy_b, args.scale)
                if args.policy_b is not None else None)
    campaign = _campaign_from(args)
    specs, labels = [], []
    for a, b in pairs:
        for policy in policies:
            scaled = _scaled_policy(policy, args.scale)
            specs.append(RunSpec.pair(a, b, scaled, cfg, scale=args.scale,
                                      mode_b=policy_b))
            labels.append((f"{a}+{b}", policy.spec(),
                           (args.policy_b or policy).spec()))
    results = campaign.results(specs)
    rows = []
    for (pair, pol_a, pol_b), res in zip(labels, results):
        row = {
            "pair": pair,
            "policy_a": pol_a,
            "policy_b": pol_b,
            "stp_ipc": res.ipc,
            "llc_miss": res.llc_miss_rate,
            "transitions": res.transitions,
        }
        for suffix, stats in zip(("a", "b"), res.programs):
            row[f"ipc_{suffix}"] = stats.ipc
        rows.append(row)
    print_rows(rows)
    print(_campaign_summary(campaign, specs))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report.builder import ReportBuilder

    figures = ([tok.strip() for tok in args.figures.split(",") if tok.strip()]
               if args.figures is not None else None)
    formats = (["html", "md"] if args.format == "both"
               else [args.format])
    try:
        builder = ReportBuilder(args.out, scale=args.scale,
                                campaign=_campaign_from(args),
                                formats=formats, figures=figures)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = builder.build(progress=True)
    statuses = [f"fig {f.number}: {f.status}" for f in result.figures]
    print(f"[report] fidelity: {', '.join(statuses)}")
    print(f"[report] artifact in {result.out_dir}/ "
          f"({', '.join(result.index_paths)})")
    if result.has_errors:
        print("error: at least one expected_trends() check raised "
              "(see the ERROR badges in the report)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.config import ServiceConfig
    from repro.service.server import JobServer

    try:
        cfg = ServiceConfig(host=args.host, port=args.port,
                            workers=args.workers, cache_dir=args.cache_dir,
                            quota=args.quota, max_queue=args.max_queue,
                            job_ttl=args.job_ttl)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = JobServer(cfg)

    async def _serve() -> None:
        await server.start()
        store = cfg.cache_dir or "in-memory"
        print(f"[serve] campaign job server on "
              f"http://{cfg.host}:{server.port} — {cfg.workers} workers, "
              f"results {store}", flush=True)
        # SIGINT and SIGTERM both end serving, so `stop()` shuts the
        # worker pool down; without a handler SIGTERM kills the server
        # and orphans its workers.  Registering SIGINT here also
        # overrides an inherited SIG_IGN (a server started in the
        # background by a non-interactive shell would ignore it).
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, serving.cancel)
        try:
            await serving
        except asyncio.CancelledError:
            if asyncio.current_task().cancelling():
                raise  # cancelled from outside, not by a signal
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("[serve] stopped")
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    registry = available_policies()
    if args.action == "list":
        rows = []
        for name, cls in registry.items():
            params = ", ".join(f"{p.name}={p.default}" for p in cls.PARAMS)
            rows.append({"policy": name,
                         "aliases": ",".join(cls.ALIASES) or "-",
                         "params": params or "-",
                         "description": cls.DESCRIPTION})
        print_rows(rows)
        print(f"\n{len(registry)} policies registered; "
              f"use --policy NAME[:key=value,...] or "
              f"`repro policy show NAME` for parameter docs")
        return 0
    # show NAME
    try:
        cls = policy_class(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{cls.NAME}")
    if cls.ALIASES:
        print(f"  aliases: {', '.join(cls.ALIASES)}")
    print(f"  {cls.DESCRIPTION}")
    doc = (cls.__doc__ or "").strip()
    if doc:
        print(f"  {doc.splitlines()[0]}")
    if cls.PARAMS:
        print("  parameters:")
        for p in cls.PARAMS:
            choices = f" (one of {list(p.choices)})" if p.choices else ""
            print(f"    {p.name} ({p.type.__name__}, default "
                  f"{p.default!r}){choices}: {p.doc}")
    else:
        print("  parameters: none")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis package is a self-contained island
    # and most CLI invocations never need it.
    from repro.analysis.base import available_rules, create_rule
    from repro.analysis.baseline import Baseline
    from repro.analysis.checker import run_check
    from repro.analysis.reporters import render_json, render_text

    if args.list_rules:
        rows = []
        for name, cls in available_rules().items():
            params = ", ".join(f"{p.name}={p.default}" for p in cls.PARAMS)
            rows.append({"rule": name, "params": params or "-",
                         "description": cls.DESCRIPTION})
        print_rows(rows)
        print("\nuse --rules NAME[:key=value,...][,NAME...] to run a "
              "subset")
        return 0

    try:
        if args.rules:
            rules = [create_rule(spec.strip())
                     for spec in args.rules.split(",") if spec.strip()]
        else:
            rules = None
        baseline = Baseline.load(args.baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths = tuple(args.paths) if args.paths else None
    try:
        if args.fix_baseline:
            # Regenerate from a baseline-free run so every current
            # finding is grandfathered, deterministically.
            report = run_check(paths or ("src/repro",), rules=rules)
            Baseline.from_findings(report.findings).save(args.baseline)
            print(f"wrote {args.baseline}: "
                  f"{len(report.findings)} grandfathered findings")
            return 0
        report = run_check(paths or ("src/repro",), rules=rules,
                           baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return 0 if report.ok else 1


def _cmd_tables(_args: argparse.Namespace) -> int:
    from repro.experiments import tables

    tables.main()
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    rows = []
    for abbr in ALL_ABBRS:
        s = BENCHMARKS[abbr]
        rows.append({"abbr": abbr, "name": s.name, "category": s.category,
                     "shared_mb": s.shared_mb, "kernels": s.num_kernels,
                     "shared_frac": s.shared_frac,
                     "instrs_per_access": s.instrs_per_access})
    print_rows(rows)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import characterize, verify_category

    workload = build(args.benchmark,
                     total_accesses=int(40_000 * args.scale))
    profile = characterize(workload)
    for field in ("name", "category", "total_accesses", "distinct_lines",
                  "footprint_mb", "write_fraction", "shared_line_fraction",
                  "shared_access_fraction", "max_sharers",
                  "accesses_per_line"):
        value = getattr(profile, field)
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"  {field}: {value}")
    problems = verify_category(profile)
    if problems:
        print("category violations:")
        for p in problems:
            print(f"  ! {p}")
        return 1
    print("category checks: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive memory-side last-level GPU caching (ISCA'19) "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one benchmark or a "
                                       "per-program-policy mix")
    p_run.add_argument("benchmark", nargs="?", choices=ALL_ABBRS,
                       help="catalog benchmark (omit when using --mix)")
    p_run.add_argument("--mix", type=_parse_mix_arg, default=None,
                       metavar="BENCH[:POLICY]+BENCH[:POLICY]+...",
                       help="multi-program mix with per-program policies, "
                            "e.g. GEMM:paper-adaptive+SN:static-private; "
                            "an entry without a policy uses --policy; "
                            "three or more entries run as an N-tenant "
                            "consolidation")
    p_run.add_argument("--tenants", type=int, default=None, metavar="N",
                       help="sample an N-tenant mix from the catalog "
                            "categories (seeded by --seed) instead of "
                            "naming one with --mix")
    p_run.add_argument("--arrivals",
                       type=_consolidation_spec_arg("ARRIVALS"),
                       default=None, metavar="NAME[:k=v,...]",
                       help="arrival process for a multi-program run "
                            "(closed/poisson/diurnal/bursty; "
                            "default: closed, everyone at time zero)")
    p_run.add_argument("--placement",
                       type=_consolidation_spec_arg("PLACEMENTS"),
                       default=None, metavar="NAME[:k=v,...]",
                       help="SM-placement policy for a multi-program run "
                            "(cluster-split/striped/fill-first/"
                            "dedicated-cluster; default: cluster-split, "
                            "the Figure 9 split)")
    p_run.add_argument("--seed", type=int, default=0, metavar="N",
                       help="RNG seed for --tenants sampling and the "
                            "arrival process (default: 0)")
    p_run.add_argument("--policy", type=_parse_policy_arg, default=None,
                       metavar="NAME[:k=v,...]",
                       help="any registered LLC policy with parameters "
                            "(see `repro policy list`); default: adaptive")
    p_run.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    _add_campaign_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="time the simulator hot path "
                                           "(simulated kinstr/s per LLC "
                                           "policy)")
    p_bench.add_argument("--benchmark", default="VA", choices=ALL_ABBRS,
                         help="workload to time (default: VA)")
    p_bench.add_argument("--scale", type=parse_scale, default=0.25,
                         metavar="S",
                         help="trace scale: float or preset "
                              "(smoke/small/medium/paper); default medium")
    p_bench.add_argument("--repeat", type=int, default=1, metavar="N",
                         help="timing attempts per scenario (every sample "
                              "recorded; median kinstr/s reported)")
    p_bench.add_argument("--tier", default="both",
                         choices=("event", "batch", "both"),
                         help="execution tier(s) to time (default: both)")
    p_bench.add_argument("--min-tier-speedup", type=float, default=0.0,
                         metavar="X",
                         help="fail unless the batch tier's geometric-mean "
                              "speedup across scenarios is at least X "
                              "times the event tier (needs --tier both; "
                              "0 disables)")
    p_bench.add_argument("--profile", action="store_true",
                         help="additionally cProfile one run per scenario "
                              "and write the top functions by cumulative "
                              "time next to the JSON record")
    p_bench.add_argument("--profile-top", type=int, default=25, metavar="N",
                         help="rows per scenario in the profile dump "
                              "(default: 25)")
    p_bench.add_argument("--out", default="BENCH_hotpath.json", metavar="FILE",
                         help="output record (default: BENCH_hotpath.json)")
    p_bench.add_argument("--baseline", default=None, metavar="FILE",
                         help="compare kinstr/s against this committed "
                              "record and fail on regression")
    p_bench.add_argument("--max-regress", type=float, default=0.30,
                         metavar="F",
                         help="allowed fractional slowdown vs the baseline "
                              "(default: 0.30)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="all three LLC policies")
    p_cmp.add_argument("benchmark", choices=ALL_ABBRS)
    p_cmp.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    _add_campaign_flags(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure "
                                          "(or 'all' for every figure)")
    p_fig.add_argument("number",
                       choices=sorted(FIGURE_MODULES, key=figure_sort_key)
                       + ["all"])
    p_fig.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    _add_campaign_flags(p_fig)
    p_fig.set_defaults(fn=_cmd_figure)

    p_rep = sub.add_parser("report", help="build the full reproduction "
                                          "report (HTML+MD artifact)")
    p_rep.add_argument("--out", default="report", metavar="DIR",
                       help="artifact directory (default: report/)")
    p_rep.add_argument("--format", default="both",
                       choices=["html", "md", "both"],
                       help="page formats to render (default: both)")
    p_rep.add_argument("--figures", default=None, metavar="N,N,...",
                       help="comma-separated figure numbers "
                            "(default: every figure)")
    p_rep.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    _add_campaign_flags(p_rep)
    p_rep.set_defaults(fn=_cmd_report)

    p_sw = sub.add_parser("sweep", help="campaign sweep over benchmarks x "
                                        "modes x config overrides")
    p_sw.add_argument("--benchmarks", default=None,
                      help="comma-separated abbreviations (default: all 17)")
    p_sw.add_argument("--modes", default="shared,private,adaptive",
                      help="comma-separated LLC policy names (no params; "
                           "use --policy for parameterized entries)")
    p_sw.add_argument("--policy", action="append", type=_parse_policy_arg,
                      metavar="NAME[:k=v,...]",
                      help="policy column with parameters; repeatable, "
                           "overrides --modes when given")
    p_sw.add_argument("--pairs", default=None, metavar="A+B,C+D,...",
                      help="sweep two-program mixes instead of singles "
                           "(program A runs the policy columns)")
    p_sw.add_argument("--policy-b", type=_parse_policy_arg, default=None,
                      metavar="NAME[:k=v,...]",
                      help="program B's policy for --pairs mixes "
                           "(default: same as program A — homogeneous)")
    p_sw.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    p_sw.add_argument("--set", action="append", type=_parse_override,
                      metavar="KEY=VALUE",
                      help="config override, dotted for nested groups "
                           "(e.g. --set noc.channel_bytes=16); repeatable")
    _add_campaign_flags(p_sw)
    p_sw.set_defaults(fn=_cmd_sweep)

    p_srv = sub.add_parser("serve", help="run the campaign job server "
                                         "(async HTTP/JSON job API)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8642, metavar="P",
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8642)")
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes sharding queued specs "
                            "(default: 2)")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared on-disk result store (content-keyed "
                            "JSON, same layout as campaign --cache-dir); "
                            "results survive restarts")
    p_srv.add_argument("--quota", type=int, default=0, metavar="N",
                       help="max in-flight jobs per client, 429 past it "
                            "(default: 0 = unlimited)")
    p_srv.add_argument("--job-ttl", type=float, default=0.0, metavar="S",
                       help="age terminal job records (done/error/"
                            "cancelled) out of the job table after S "
                            "seconds; results stay in the store "
                            "(default: 0, keep forever)")
    p_srv.add_argument("--max-queue", type=int, default=1024, metavar="N",
                       help="max queued jobs overall, 503 past it "
                            "(default: 1024)")
    p_srv.set_defaults(fn=_cmd_serve)

    p_pol = sub.add_parser("policy", help="inspect the LLC-policy registry")
    pol_sub = p_pol.add_subparsers(dest="action", required=True)
    pol_sub.add_parser("list", help="every registered policy, one line each")
    p_pol_show = pol_sub.add_parser("show",
                                    help="one policy's parameter schema")
    p_pol_show.add_argument("name", metavar="NAME")
    p_pol.set_defaults(fn=_cmd_policy)

    p_chk = sub.add_parser("check", help="run the simulator-aware static "
                                         "analysis pass")
    p_chk.add_argument("paths", nargs="*",
                       help="files/directories to scan "
                            "(default: src/repro)")
    p_chk.add_argument("--format", choices=("text", "json"),
                       default="text", help="report format")
    p_chk.add_argument("--baseline", default=".repro-check-baseline.json",
                       help="committed baseline of grandfathered findings")
    p_chk.add_argument("--rules", default="",
                       metavar="SPEC[,SPEC...]",
                       help="run only these rules, e.g. "
                            "'determinism,hot-path:slots=false'")
    p_chk.add_argument("--fix-baseline", action="store_true",
                       help="regenerate the baseline from current "
                            "findings (deterministic, sorted)")
    p_chk.add_argument("--list-rules", action="store_true",
                       help="list registered rules and exit")
    p_chk.set_defaults(fn=_cmd_check)

    p_tab = sub.add_parser("tables", help="print Tables 1 and 2")
    p_tab.set_defaults(fn=_cmd_tables)

    p_cat = sub.add_parser("catalog", help="list the benchmark suite")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_an = sub.add_parser("analyze", help="characterize a workload trace")
    p_an.add_argument("benchmark", choices=ALL_ABBRS)
    p_an.add_argument("--scale", type=parse_scale, default=1.0,
                       metavar="S",
                       help="trace scale: float or preset "
                            "(smoke/small/medium/paper)")
    p_an.set_defaults(fn=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
