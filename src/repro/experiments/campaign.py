"""Declarative experiment campaigns: specs, dedup, caching, parallelism.

Every paper figure is a set of simulations keyed by
``(benchmark/pair, LLC mode, config, scale, flags)``.  Historically each
figure driver re-ran its simulations serially and from scratch, even though
Figures 11/12/13 (for example) overlap heavily.  The campaign layer fixes
both problems at once:

* :class:`RunSpec` — a frozen, declarative description of one simulation
  with a stable **content key** (SHA-256 of the canonical JSON serialization
  of the spec, including the full :class:`~repro.config.GPUConfig`).  Two
  specs that would produce the same simulation hash identically, no matter
  which figure declared them.
* :class:`Campaign` — executes a batch of specs, deduplicating identical
  ones, serving repeats from an in-process memo and an optional on-disk
  JSON cache, and fanning cache misses out over a ``multiprocessing`` pool.

Workloads are generated from CRC32-seeded RNGs and the simulator is fully
deterministic, so a result computed in a worker process is byte-identical
to one computed inline — which is what makes content-keyed caching sound.

Usage::

    campaign = Campaign(jobs=4, cache_dir=".repro-cache")
    specs = [RunSpec.single("VA", m) for m in ("shared", "private")]
    shared, private = campaign.results(specs)
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.config import GPUConfig, PolicyConfig, canonical_key
from repro.experiments.runner import (_accesses_for, _mix_accesses,
                                      experiment_config, scaled_policy_params)
from repro.gpu.results import RunResult
from repro.policy import (canonical_policy_name, canonical_policy_params,
                          create_policy)
from repro.scenario import ProgramSpec, Scenario, parse_mix
from repro.workloads.catalog import BENCHMARKS, benchmark
from repro.workloads.generator import generate_workload
from repro.workloads.multiprogram import make_mix

if TYPE_CHECKING:
    from repro.gpu.system import GPUSystem

#: Bump when the serialization format or simulator semantics change in a way
#: that invalidates previously cached results.  v2: the policy layer — specs
#: carry ``policy_params`` and ``mode`` accepts any registered policy name,
#: so every pre-policy cached record must be re-simulated, not reused.
#: v3: the Scenario API — specs gain a canonical per-program policy
#: serialization (``mode_b``/``policy_params_b``) and pair results carry
#: per-program policy/transition payloads, so v2 records are stale.
#: v4: ``GPUConfig.tier`` joined the key, elided at its then-default "event".
#: It has since left the key (batch is the default) with no bump: event keys
#: never moved, and ``tier="batch"``-keyed records are orphans, not corrupt.
#: v5: the consolidation subsystem — specs gain ``extra``/``arrivals``/
#: ``placement``/``seed`` (all elided at their legacy defaults, so legacy
#: keys are unchanged) and consolidation results carry occupancy timelines
#: and per-tenant latency payloads v4 readers never wrote.
#: v6: flushes and a run-end drain write each dirty line at its slice's
#: MC, and the per-line flush constant left ``AdaptiveConfig``.
CACHE_VERSION = 6


def _canonical_policy_params(mode: str, params) -> tuple:
    """Sorted, schema-coerced ``((key, value), ...)`` for the content key.

    Coercion (``"0.5"`` vs ``0.5`` vs ``1`` vs ``1.0``) happens here so
    equivalent parameterizations hash identically; defaults are *not*
    filled in, so later-added parameters cannot re-key old specs.  The
    name is resolved even without parameters, so a spec naming no
    registered policy is rejected where it is built.
    """
    canonical_policy_name(mode)
    if not params:
        return ()
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(params)
    coerced = canonical_policy_params(mode, dict(items))
    return tuple(sorted(coerced.items()))


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully described.

    ``pair_with`` switches the spec from a single-benchmark run to a
    two-program mix (Figure 15); ``extra``, ``arrivals`` and ``placement``
    make that mix an N-tenant consolidation run.  :meth:`tenants` lists
    the programs and :func:`spec_system` builds the simulation.  Every
    field is checked at construction (a spec that exists can run), and
    nothing is coerced, so a spec's content key is exactly what was
    declared.

    The Scenario API's per-program policies serialize through
    ``mode_b``/``policy_params_b``: when set, program B runs its own
    policy (``mode`` stays program A's), and both join the content key.  A
    ``mode_b`` spelled identically to ``mode`` (same parameters) is
    canonicalized away at construction, so a homogeneous mix declared
    per-program hashes — and executes — exactly like the legacy
    one-policy pair it is.

    Attributes:
        benchmark: catalog abbreviation of the (first) program.
        mode: LLC policy — any name registered in :mod:`repro.policy`
            (``"shared"``/``"private"``/``"adaptive"`` aliases included).
        policy_params: sorted ``((key, value), ...)`` policy parameters;
            constructors accept a plain dict.  Part of the content key —
            two specs differing only in parameters hash differently.
        cfg: the full :class:`~repro.config.GPUConfig` (part of the key:
            two specs differing only in config hash differently).
        scale: trace-length multiplier (1.0 = calibrated full size).
        pair_with: second program's abbreviation for two-program mixes.
        num_ctas: CTA count override (default: 2 per SM), divided evenly
            between co-running programs.
        max_kernels: kernel-boundary cap for the generated trace.  Kernel
            boundaries re-synchronize the CTA convoys that create
            shared-LLC contention and trigger Rule #3 re-profiling; the
            single-program default of 3 keeps both effects while bounding
            the per-kernel profiling overhead scaled traces magnify.
        collect_locality: attach Figure 3's locality histogram.
        with_energy: attach the system energy report.
        mode_b: program B's LLC policy for a heterogeneous mix
            (requires ``pair_with``; ``None`` = both programs run
            ``mode``).
        policy_params_b: program B's policy parameters.
        extra: tenants three and up for N-tenant consolidation runs —
            ``(benchmark, mode, ((key, value), ...))`` triples extending
            a two-program mix (requires ``pair_with``).
        arrivals: ``NAME[:k=v,...]`` spec of a registered arrival process
            (:mod:`repro.consolidate.arrivals`); ``None`` = closed system,
            everyone present at time zero.  The default ``closed`` spec
            canonicalizes to ``None`` so it keeps the legacy key.
        placement: ``NAME[:k=v,...]`` spec of a registered SM-placement
            policy (:mod:`repro.consolidate.placement`); ``None`` = the
            Figure 9 cluster-split, and the default ``cluster-split``
            spec canonicalizes to ``None``.
        seed: RNG seed for the arrival process.  Canonicalized to 0 when
            ``arrivals`` is ``None`` (a closed system draws nothing).
    """

    benchmark: str
    mode: str
    cfg: GPUConfig
    scale: float = 1.0
    pair_with: Optional[str] = None
    num_ctas: Optional[int] = None
    max_kernels: int = 3
    collect_locality: bool = False
    with_energy: bool = False
    policy_params: tuple = ()
    mode_b: Optional[str] = None
    policy_params_b: tuple = ()
    extra: tuple = ()
    arrivals: Optional[str] = None
    placement: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        self._validate_run_fields()
        object.__setattr__(self, "policy_params",
                           _canonical_policy_params(self.mode,
                                                    self.policy_params))
        self._canonicalize_consolidation()
        if self.mode_b is None:
            if self.policy_params_b:
                raise ValueError("policy_params_b requires mode_b")
            return
        if self.pair_with is None:
            raise ValueError("mode_b requires pair_with (a two-program mix)")
        object.__setattr__(self, "policy_params_b",
                           _canonical_policy_params(self.mode_b,
                                                    self.policy_params_b))
        if (self.mode_b == self.mode
                and self.policy_params_b == self.policy_params):
            # Homogeneous mix: canonicalize to the legacy one-policy spec
            # so it hashes (and caches) identically.
            object.__setattr__(self, "mode_b", None)
            object.__setattr__(self, "policy_params_b", ())

    def _validate_run_fields(self) -> None:
        """Reject what no simulation can run.  Nothing is coerced: a
        coerced field would hash to a key nobody declared."""
        def is_int(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        if not (is_int(self.scale) or isinstance(self.scale, float)) \
                or not 0 < self.scale < math.inf:      # also false for NaN
            raise ValueError(
                f"scale must be a positive finite number, got {self.scale!r}")
        for name, value in (("max_kernels", self.max_kernels),
                            ("num_ctas", self.num_ctas)):
            if not (is_int(value) and value >= 1
                    or name == "num_ctas" and value is None):
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        for abbr in (self.benchmark, self.pair_with,
                     *(entry[0] for entry in self.extra)):
            if abbr is not None and abbr not in BENCHMARKS:
                raise ValueError(f"unknown benchmark {abbr!r} "
                                 f"(see `repro catalog`)")
        for name, flag in (("collect_locality", self.collect_locality),
                           ("with_energy", self.with_energy)):
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be true or false, got {flag!r}")
        self.cfg.validate()

    def _canonicalize_consolidation(self) -> None:
        if self.pair_with is None and (self.extra or self.arrivals is not None
                                       or self.placement is not None):
            raise ValueError("extra/arrivals/placement need a multi-program "
                             "mix (pair_with); a single program has no "
                             "co-tenants")
        object.__setattr__(self, "extra", tuple(
            (abbr, mode_x, _canonical_policy_params(mode_x, params_x))
            for abbr, mode_x, params_x in self.extra))
        if self.placement is not None:
            from repro.consolidate.placement import canonical_placement_spec

            object.__setattr__(self, "placement",
                               canonical_placement_spec(self.placement))
        if self.arrivals is not None:
            from repro.consolidate.arrivals import (arrival_times,
                                                    canonical_arrivals_spec)

            object.__setattr__(self, "arrivals",
                               canonical_arrivals_spec(self.arrivals))
            # The spec holds the tenant count and the seed, so admission
            # times that overflow or run backwards fail here, not in a
            # worker.
            arrival_times(self.arrivals, 2 + len(self.extra), self.seed)
        if self.arrivals is None and self.seed:
            # A closed system draws nothing from the RNG: canonicalize the
            # seed away so the spec hashes like the legacy spec it is.
            object.__setattr__(self, "seed", 0)

    # ------------------------------------------------------- constructors
    @staticmethod
    def single(benchmark: str, mode: str, cfg: Optional[GPUConfig] = None,
               scale: float = 1.0, num_ctas: Optional[int] = None,
               max_kernels: int = 3, collect_locality: bool = False,
               with_energy: bool = False,
               policy_params: Optional[dict] = None) -> "RunSpec":
        """A one-benchmark run of ``mode`` (a policy name, ``NAME:k=v``
        spec or :class:`~repro.config.PolicyConfig`)."""
        mode, policy_params = _split_policy(mode, policy_params)
        return RunSpec(benchmark=benchmark, mode=mode,
                       cfg=cfg if cfg is not None else experiment_config(),
                       scale=scale, num_ctas=num_ctas,
                       max_kernels=max_kernels,
                       collect_locality=collect_locality,
                       with_energy=with_energy,
                       policy_params=tuple((policy_params or {}).items()))

    @staticmethod
    def pair(abbr_a: str, abbr_b: str, mode: str,
             cfg: Optional[GPUConfig] = None, scale: float = 1.0,
             max_kernels: int = 1,
             policy_params: Optional[dict] = None,
             mode_b=None,
             policy_params_b: Optional[dict] = None,
             extra: tuple = (),
             arrivals: Optional[str] = None,
             placement: Optional[str] = None,
             seed: int = 0) -> "RunSpec":
        """A two-program mix (Figure 15), both programs running ``mode``.

        ``mode_b`` gives program B its own policy (a heterogeneous mix).
        ``extra`` appends tenants three and up as ``(benchmark, policy,
        params_dict)`` triples, and ``arrivals``/``placement``/``seed``
        attach the consolidation fields (see the class docstring).
        """
        mode, policy_params = _split_policy(mode, policy_params)
        if mode_b is not None:
            mode_b, policy_params_b = _split_policy(mode_b, policy_params_b)
        canon_extra = tuple((abbr_x, *_split_policy(mode_x, params_x))
                            for abbr_x, mode_x, params_x in extra)
        return RunSpec(benchmark=abbr_a, mode=mode,
                       cfg=cfg if cfg is not None else experiment_config(),
                       scale=scale, pair_with=abbr_b,
                       max_kernels=max_kernels,
                       policy_params=tuple((policy_params or {}).items()),
                       mode_b=mode_b,
                       policy_params_b=tuple(
                           (policy_params_b or {}).items()),
                       extra=canon_extra,
                       arrivals=arrivals, placement=placement, seed=seed)

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        out = {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "policy_params": {k: v for k, v in self.policy_params},
            "cfg": self.cfg.to_dict(),
            "scale": self.scale,
            "pair_with": self.pair_with,
            "num_ctas": self.num_ctas,
            "max_kernels": self.max_kernels,
            "collect_locality": self.collect_locality,
            "with_energy": self.with_energy,
        }
        if self.mode_b is not None:
            # Per-program policies join the serialization (and therefore
            # the content key) only when heterogeneous, so every
            # homogeneous spec keeps its historical key and cached
            # results keep deduplicating across figures.
            out["mode_b"] = self.mode_b
            out["policy_params_b"] = {k: v for k, v in self.policy_params_b}
        # The consolidation fields serialize only away from their legacy
        # defaults, keeping every pre-consolidation key byte-identical.
        if self.extra:
            out["extra"] = [[abbr, mode, {k: v for k, v in params}]
                            for abbr, mode, params in self.extra]
        if self.arrivals is not None:
            out["arrivals"] = self.arrivals
        if self.placement is not None:
            out["placement"] = self.placement
        if self.seed:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        kwargs = dict(data)
        kwargs["cfg"] = GPUConfig.from_dict(kwargs["cfg"])
        params = kwargs.pop("policy_params", None) or {}
        kwargs["policy_params"] = tuple(params.items())
        params_b = kwargs.pop("policy_params_b", None) or {}
        kwargs["policy_params_b"] = tuple(params_b.items())
        extra = kwargs.pop("extra", None) or []
        kwargs["extra"] = tuple((abbr, mode, tuple(params.items()))
                                for abbr, mode, params in extra)
        return cls(**kwargs)

    def cache_key(self) -> str:
        """Stable content hash: identical simulations hash identically.

        The spec is frozen, so the key is computed once per instance and
        kept beside the fields (not as one: the fields are what it hashes).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = canonical_key(self.to_dict())
            object.__setattr__(self, "_cache_key", key)
        return key

    @property
    def is_consolidation(self) -> bool:
        """Whether the spec is an N-tenant consolidation run: a third
        tenant, an arrival process or a non-default placement."""
        return bool(self.extra) or self.arrivals is not None \
            or self.placement is not None

    def tenants(self) -> list[tuple[str, str, Optional[dict]]]:
        """``(benchmark, policy, params_dict_or_None)`` per co-running
        program, in admission order (one entry for a single benchmark)."""
        params = dict(self.policy_params) or None
        out = [(self.benchmark, self.mode, params)]
        if self.pair_with is not None:
            if self.mode_b is None:
                out.append((self.pair_with, self.mode, params))
            else:
                out.append((self.pair_with, self.mode_b,
                            dict(self.policy_params_b) or None))
        out.extend((abbr, mode, dict(params_x) or None)
                   for abbr, mode, params_x in self.extra)
        return out

    def program_entries(self) -> list[tuple[str, str]]:
        """Canonical per-program view: ``(benchmark, policy_spec)`` per
        co-running program (one entry for single-benchmark specs)."""
        return [(abbr, PolicyConfig.of(mode, params).spec())
                for abbr, mode, params in self.tenants()]

    def label(self) -> str:
        """Short human-readable tag for progress output."""
        entries = self.program_entries()
        if self.mode_b is not None or self.extra:
            mix = "+".join(f"{bench}:{policy}" for bench, policy in entries)
            tag = f"{mix}@{self.scale:g}"
        else:
            name = "+".join(bench for bench, _ in entries)
            tag = f"{name}/{entries[0][1]}@{self.scale:g}"
        if self.arrivals is not None:
            tag = f"{tag}~{self.arrivals}"
        return tag


def _split_policy(mode, policy_params: Optional[dict]
                  ) -> tuple[str, Optional[dict]]:
    """Let constructors take a :class:`~repro.config.PolicyConfig` (or a
    ``"name:k=v"`` spec string) wherever a bare policy name is accepted."""
    if isinstance(mode, PolicyConfig):
        cfg = mode
    elif isinstance(mode, str) and ":" in mode:
        cfg = PolicyConfig.from_spec(mode)
    else:
        return mode, policy_params
    merged = cfg.params_dict()
    merged.update(policy_params or {})
    return cfg.name, merged


def spec_from_mix(mix, scale: float = 1.0, default_policy=None,
                  cfg: Optional[GPUConfig] = None,
                  max_kernels: Optional[int] = None,
                  arrivals: Optional[str] = None,
                  placement: Optional[str] = None,
                  seed: int = 0) -> RunSpec:
    """Build the :class:`RunSpec` for a mix declaration.

    ``mix`` is either the ``BENCH[:POLICY[:k=v,...]]+...`` grammar text
    or the already-parsed ``(benchmark, PolicyConfig | None)`` entries
    from :func:`repro.scenario.parse_mix`.  This is the one conversion
    both the CLI (``run --mix``) and the job server's wire format go
    through, so a mix submitted over HTTP hashes to exactly the content
    key the same mix run locally would.

    Entries without a policy inherit ``default_policy`` (default:
    ``adaptive``, the CLI's default); interval policies get their
    scale-derived window parameters
    (:func:`~repro.experiments.runner.scaled_policy_params`), explicit
    parameters always winning — again matching the CLI.

    Mixes of three or more programs — and any mix carrying an
    ``arrivals``/``placement`` spec — become consolidation runs
    (:attr:`RunSpec.is_consolidation`): tenants three and up land in
    :attr:`RunSpec.extra`.

    Raises ``ValueError`` for malformed grammar, unknown benchmarks,
    unknown policies, bad policy parameters, or any field the
    :class:`RunSpec` itself rejects (a non-finite or non-positive
    ``scale``, for one).
    """
    entries = parse_mix(mix) if isinstance(mix, str) else list(mix)
    if not entries:
        raise ValueError("a mix needs at least one program entry")
    if default_policy is None:
        default_policy = PolicyConfig.of("adaptive")
    elif isinstance(default_policy, str):
        default_policy = PolicyConfig.from_spec(default_policy)
    resolved = []
    for abbr, policy in entries:
        if abbr not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {abbr!r} in mix "
                             f"(see `repro catalog`)")
        policy = policy if policy is not None else default_policy
        # Name/parameter validation happens inside the canonicalization.
        scaled = PolicyConfig.of(policy.name,
                                 scaled_policy_params(policy.name, scale,
                                                      policy.params_dict()))
        resolved.append((abbr, scaled))
    kernels = {} if max_kernels is None else {"max_kernels": max_kernels}
    if len(resolved) == 1:
        if arrivals is not None or placement is not None:
            raise ValueError("arrivals/placement specs need a multi-program "
                             "mix (a single program has no co-tenants)")
        (abbr, policy), = resolved
        return RunSpec.single(abbr, policy, cfg, scale=scale, **kernels)
    (abbr_a, pol_a), (abbr_b, pol_b) = resolved[0], resolved[1]
    extra = tuple((abbr, pol.name, pol.params_dict())
                  for abbr, pol in resolved[2:])
    return RunSpec.pair(abbr_a, abbr_b, pol_a, cfg, scale=scale,
                        mode_b=pol_b, extra=extra, arrivals=arrivals,
                        placement=placement, seed=seed, **kernels)


def trace_key(spec: RunSpec) -> tuple:
    """The fields that determine a spec's trace: ``(tenant abbreviations,
    CTA count, access budget, kernel cap)``.

    The budget is the integer the scale resolves to, so two scales that
    round to one budget share a trace.  A single program's key has one
    abbreviation and a co-run's has one per tenant, so the two kinds of
    trace never collide.  :func:`spec_system`'s trace memo and
    :meth:`Campaign.prefetch`'s task grouping both key on it.
    """
    abbrs = tuple(abbr for abbr, _, _ in spec.tenants())
    num_ctas = spec.num_ctas if spec.num_ctas is not None \
        else 2 * spec.cfg.num_sms
    budget = _accesses_for(spec.benchmark, spec.scale) if len(abbrs) == 1 \
        else _mix_accesses(spec.scale)
    return abbrs, num_ctas, budget, spec.max_kernels


#: The last trace this process built, as ``(trace_key, trace)``.
_last_trace: Optional[tuple] = None


def _trace(key: tuple):
    """The trace for ``key``, served from a one-slot memo.

    A miss drops the held trace before generating the next one, so a
    process never holds two traces at once.  Sharing one trace between
    systems is sound because the simulator only reads a workload.
    """
    global _last_trace
    if _last_trace is not None and _last_trace[0] == key:
        return _last_trace[1]
    _last_trace = None
    abbrs, num_ctas, budget, max_kernels = key
    if len(abbrs) == 1:
        trace = generate_workload(benchmark(abbrs[0]), num_ctas=num_ctas,
                                  total_accesses=budget,
                                  max_kernels=max_kernels)
    else:
        trace = make_mix(list(abbrs), total_accesses=budget,
                         num_ctas=num_ctas, max_kernels=max_kernels)
    _last_trace = (key, trace)
    return trace


def spec_system(spec: RunSpec,
                probes: Optional[dict] = None) -> GPUSystem:
    """Build (but do not run) the simulated GPU a spec describes: the one
    place a spec becomes traces and a system.

    One program gets its category's trace budget; co-running programs
    share :func:`~repro.workloads.multiprogram.make_mix` and the mix
    budget.  The trace comes from a one-slot per-process memo keyed on
    :func:`trace_key`, so consecutive specs of one trace (a benchmark's
    policies, grouped by :meth:`Campaign.prefetch`) generate it once.
    A heterogeneous or consolidation mix becomes a
    :class:`~repro.scenario.Scenario` (consolidation adds admission times
    and latency tracking); any other spec runs under one global policy.

    ``probes`` optionally carries pre-computed static probe measurements
    for an ``oracle-static`` spec (see :meth:`Campaign.prefetch`); they
    pre-seed the policy instance, and the simulator is deterministic, so
    injecting them changes nothing but the wall time.
    """
    from repro.gpu.system import GPUSystem

    tenants = spec.tenants()
    workload = _trace(trace_key(spec))
    programs = (workload,) if len(tenants) == 1 else workload.programs
    if spec.mode_b is not None or spec.is_consolidation:
        times = None
        if spec.is_consolidation:
            from repro.consolidate.arrivals import arrival_times

            times = arrival_times(spec.arrivals, len(tenants), spec.seed)
        scenario = Scenario(
            [ProgramSpec(wl, mode, params)
             for wl, (_, mode, params) in zip(programs, tenants)],
            placement=spec.placement, arrival_times=times,
            track_latency=spec.is_consolidation)
        return GPUSystem(spec.cfg, scenario,
                         collect_locality=spec.collect_locality)
    _, policy, params = tenants[0]
    if probes is not None:
        policy = create_policy(policy, params)
        policy.inject_probes(probes)
        params = None
    return GPUSystem(spec.cfg, workload, policy=policy,
                     policy_params=params,
                     collect_locality=spec.collect_locality)


def execute_spec(spec: RunSpec,
                 probes: Optional[dict] = None) -> RunResult:
    """Run one spec to completion (no caching — the campaign's worker).

    The system comes from :func:`spec_system` (``probes`` as there);
    ``spec.with_energy`` attaches the power model's report.

    The cyclic garbage collector is paused while the spec runs: a build
    allocates tens of thousands of tracked objects, and the passes they
    would trigger find nothing to free.  A finished system holds no
    reference cycle, so it is freed when the spec returns.  The caller's
    collector state is restored.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate_spec(spec, probes)
    finally:
        if was_enabled:
            gc.enable()


def _simulate_spec(spec: RunSpec, probes: Optional[dict]) -> RunResult:
    """:func:`execute_spec`'s body: build, run and (``spec.with_energy``)
    price one system."""
    system = spec_system(spec, probes)
    result = system.run()
    if spec.with_energy:
        from repro.power.gpu_power import GPUPowerModel

        result.energy = GPUPowerModel().report(system, result)
    return result


def import_simulator() -> None:
    """Import what executing a spec runs: the system, the power model and
    the adaptive controller's profiler.

    Nothing that only builds specs or reads results imports these, so a
    warm command never loads the simulator.  A process that forks worker
    processes calls this before its pool starts, so the workers inherit
    the modules instead of each importing its own copy.
    """
    import repro.core.sampler  # noqa: F401
    import repro.gpu.system  # noqa: F401
    import repro.power.gpu_power  # noqa: F401


class SpecExecutionError(RuntimeError):
    """A :class:`RunSpec` raised while executing.

    Wraps the original exception with the spec's :meth:`~RunSpec.label` so a
    failure inside a multiprocessing worker names which simulation died
    instead of surfacing a bare traceback.  The first constructor argument
    is the full message (exceptions unpickle via ``cls(*args)``, so the
    signature must round-trip across the pool boundary).
    """

    def __init__(self, message: str, label: str = ""):
        super().__init__(message)
        self.label = label


def _execute_spec_labeled(spec: RunSpec,
                          probes: Optional[dict] = None) -> dict:
    """Run a spec, attaching its label to any failure."""
    try:
        return execute_spec(spec, probes=probes).to_dict()
    except SpecExecutionError:
        raise
    except Exception as exc:
        label = spec.label()
        raise SpecExecutionError(
            f"run spec {label} failed: {type(exc).__name__}: {exc}",
            label) from exc


def _pool_worker(payloads: list[dict]) -> list[tuple[str, object]]:
    """``(content key, result dict or SpecExecutionError)`` per payload,
    run back to back so that specs of one trace share it.

    A failure comes back as a value, not raised: a raise would discard
    the finished results of the rest of the task.  Module-level so it
    pickles under every multiprocessing start method.
    """
    out: list[tuple[str, object]] = []
    for payload in payloads:
        spec = RunSpec.from_dict(payload["spec"])
        try:
            outcome = _execute_spec_labeled(spec, payload.get("probes"))
        except SpecExecutionError as exc:
            outcome = exc
        out.append((spec.cache_key(), outcome))
    return out


def probe_specs_for(spec: RunSpec) -> Optional[list[RunSpec]]:
    """The two static probe specs behind an ``oracle-static`` spec.

    Returns ``None`` when the spec needs no probes: non-oracle policies,
    heterogeneous mixes (their oracle is scoped and probes a lone
    program), and atomics workloads (pinned shared without probing,
    Section 4.1).  The derived specs use the legacy ``shared``/``private``
    spellings the paper figures declare, so a shootout's oracle column
    dedupes against its own static columns in the campaign cache.
    """
    import dataclasses

    if spec.mode_b is not None:
        return None
    if spec.is_consolidation:
        # Consolidation runs: the solo probe baselines differ per tenant
        # and the oracle scopes per program — no shared probe pair exists.
        return None
    try:
        if canonical_policy_name(spec.mode) != "oracle-static":
            return None
    except ValueError:
        return None  # unknown name: let execution raise the real error
    abbrs = [spec.benchmark] + ([spec.pair_with] if spec.pair_with else [])
    if any(benchmark(abbr).uses_atomics for abbr in abbrs):
        return None
    return [dataclasses.replace(spec, mode=m, policy_params=(),
                                collect_locality=False, with_energy=False)
            for m in ("shared", "private")]


def _probe_payload(result: RunResult) -> dict:
    """The measurement triple :meth:`OracleStaticPolicy.inject_probes`
    needs, extracted from a full probe result."""
    return {"ipc": result.ipc, "cycles": result.cycles,
            "llc_miss_rate": result.llc_miss_rate}


class Campaign:
    """Executes :class:`RunSpec` batches with dedup, caching, parallelism.

    Args:
        jobs: worker-pool width, an integer >= 1 (1 = run inline, no
            pool); anything else raises ``ValueError``.
        cache_dir: enables the on-disk JSON cache (a
            :class:`~repro.experiments.store.ResultStore`); records are
            written atomically and corrupt entries are quarantined, so
            concurrent campaigns — and the :mod:`repro.service` job
            server — can share a directory.

    Attributes:
        executed: simulations actually run by this instance.
        cache_hits: results served from the on-disk cache.
        memo_hits: repeat requests served from process memory.
        store: the on-disk :class:`~repro.experiments.store.ResultStore`
            (persistence disabled when ``cache_dir`` is None).
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None):
        from repro.experiments.store import ResultStore

        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise ValueError(f"jobs must be an integer, got {jobs!r}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.executed = 0
        self.cache_hits = 0
        self.memo_hits = 0
        self._memo: dict[str, RunResult] = {}
        self.store = ResultStore(cache_dir, version=CACHE_VERSION)

    # -------------------------------------------------------------- query
    def result(self, spec: RunSpec) -> RunResult:
        """The result for one spec (executing it if needed)."""
        return self.results([spec])[0]

    def results(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Results aligned with ``specs``; unique misses run once each."""
        self.prefetch(specs)
        return [self._memo[spec.cache_key()] for spec in specs]

    # ---------------------------------------------------------- execution
    def prefetch(self, specs: Iterable[RunSpec]) -> None:
        """Ensure every spec's result is memoized, running misses in bulk.

        Identical specs collapse to one execution; disk-cached results are
        loaded instead of re-run; the remainder runs grouped by
        :func:`trace_key`, so consecutive specs of one trace hit
        :func:`spec_system`'s trace memo.  Inline, the groups run one
        after another.  Over the pool, each group is one task, split
        into pieces of at most ``len // (4 * workers)`` specs (the
        stdlib ``map`` chunk size, so every worker still gets about four
        tasks), and the largest tasks go first, so the last ones to
        finish are short.

        A failing spec raises :class:`SpecExecutionError` naming its
        label, and no finished spec is lost: inline, the specs run before
        it stay memoized and stored; over the pool, every other spec
        still runs and is finished, and the first failure received is
        raised once the pool has drained.  A retried campaign resumes
        instead of starting over.
        """
        todo: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.cache_key()
            if key in self._memo:
                self.memo_hits += 1
                continue
            if key in todo:
                self.memo_hits += 1  # duplicate within this batch
                continue
            cached = self.store.load(key)
            if cached is not None:
                self._memo[key] = cached
                self.cache_hits += 1
                continue
            todo[key] = spec
        if not todo:
            return
        # Oracle probe reuse: an oracle-static spec's two auxiliary static
        # runs are ordinary specs (often the very static columns the same
        # campaign already declares), so compute them through this cache
        # first and inject the measurements instead of re-simulating them
        # inside the oracle's setup().
        probes: dict[str, dict] = {}
        expansions = {key: probe_list for key, spec in todo.items()
                      if (probe_list := probe_specs_for(spec)) is not None}
        if expansions:
            self.prefetch([p for plist in expansions.values() for p in plist])
            for key, (shared_spec, private_spec) in expansions.items():
                probes[key] = {
                    "shared": _probe_payload(
                        self._memo[shared_spec.cache_key()]),
                    "private": _probe_payload(
                        self._memo[private_spec.cache_key()]),
                }
            # The recursion may have executed specs this batch also
            # declared directly (a shootout's static columns *are* the
            # oracle's probes) — they are memoized now, not todo.
            todo = {key: spec for key, spec in todo.items()
                    if key not in self._memo}
            if not todo:
                return
        groups: dict[tuple, list[str]] = {}
        for key, spec in todo.items():
            groups.setdefault(trace_key(spec), []).append(key)
        if self.jobs == 1 or len(todo) == 1:
            for keys in groups.values():
                for key in keys:
                    self._finish(key, todo[key], _execute_spec_labeled(
                        todo[key], probes.get(key)))
            return
        workers = min(self.jobs, len(todo))
        cap = max(1, len(todo) // (4 * workers))
        tasks = [[{"spec": todo[key].to_dict(), "probes": probes.get(key)}
                  for key in keys[start:start + cap]]
                 for keys in groups.values()
                 for start in range(0, len(keys), cap)]
        tasks.sort(key=len, reverse=True)
        failure: Optional[SpecExecutionError] = None
        # Fork-based workers inherit the imported simulator for free on
        # POSIX; spawn re-imports it, which is still correct, just slower.
        import_simulator()
        from multiprocessing import get_context

        with get_context().Pool(processes=workers) as pool:
            for outcomes in pool.imap_unordered(_pool_worker, tasks):
                for key, outcome in outcomes:
                    if isinstance(outcome, SpecExecutionError):
                        failure = failure or outcome
                    else:
                        self._finish(key, todo[key], outcome)
        if failure is not None:
            raise failure

    def _finish(self, key: str, spec: RunSpec, result_dict: dict) -> None:
        # Results always round-trip through the dict form so that a fresh
        # execution and a cache hit hand the caller structurally identical
        # objects (tuples vs lists, nested report types, ...).
        self.executed += 1
        self.store.store(key, spec.to_dict(), result_dict)
        self._memo[key] = RunResult.from_dict(result_dict)
