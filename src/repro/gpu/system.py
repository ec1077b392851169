"""The assembled GPU system: SMs + L1s + NoC + LLC slices + DRAM +
pluggable LLC policies, driven by the discrete-event engine.

One :class:`GPUSystem` runs one :class:`~repro.scenario.Scenario` — an
ordered set of programs, each governed by its *own* LLC policy resolved
through the :mod:`repro.policy` registry (a registered name such as
``"static-shared"``/``"paper-adaptive"``/``"hysteresis"``, a
:class:`~repro.config.PolicyConfig`, or an
:class:`~repro.policy.LLCPolicy` instance).  The historical surface —
``GPUSystem(cfg, workload, policy=...)`` with one global policy — remains
as a thin adapter that builds a one-policy scenario internally, so legacy
runs stay byte-identical; the string triad
``"shared"``/``"private"``/``"adaptive"`` keeps working as aliases.

Request life cycle (all times computed by threading through bandwidth
servers, one engine event per L1 miss):

    SM issue → request network → LLC slice tag/data ports
      → (miss: DRAM bank + bus) → reply network → MSHR release → SM wakes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.config import GPUConfig, PolicyConfig
from repro.core.modes import LLCMode
from repro.core.reconfig import ReconfigCost
from repro.policy import LLCPolicy, PolicyStats, create_policy
from repro.scenario import Scenario
from repro.gpu.cta import assign_ctas
from repro.gpu.sm import StreamingMultiprocessor
from repro.mem.address_map import make_mapping
from repro.mem.controller import MemoryController
from repro.metrics.locality import InterClusterLocalityTracker
from repro.noc.topology import make_topology
from repro.cache.llc_slice import LLCSlice
from repro.sim.engine import Engine
from repro.workloads.multiprogram import MultiProgramWorkload
from repro.workloads.trace import Workload


@dataclass
class ProgramStats:
    """Per-program results for multi-program runs.

    Scenario runs additionally report which policy governed the program
    and its mode-transition timeline (``[when, mode, reason]`` entries —
    a static program carries one synthetic ``"static"`` entry).  Legacy
    one-policy runs leave ``policy`` empty and serialize exactly as they
    always did, keeping pre-Scenario captures byte-identical.

    Consolidation runs (:mod:`repro.consolidate`) additionally carry the
    tenant's admission time and its request-latency percentiles
    (``{"count", "p50", "p95", "p99"}``, read round trips in cycles);
    both are elided from the dict form when absent, so every pre-existing
    capture keeps its exact serialization.
    """

    name: str
    instructions: float
    ipc: float
    policy: str = ""
    transitions: int = 0
    mode_timeline: list = field(default_factory=list)
    admitted_at: Optional[float] = None
    latency: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "instructions": self.instructions,
               "ipc": self.ipc}
        if self.policy:
            out["policy"] = self.policy
            out["transitions"] = self.transitions
            out["mode_timeline"] = [list(e) for e in self.mode_timeline]
        if self.admitted_at is not None:
            out["admitted_at"] = self.admitted_at
        if self.latency is not None:
            out["latency"] = dict(self.latency)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramStats":
        return cls(name=data["name"], instructions=data["instructions"],
                   ipc=data["ipc"], policy=data.get("policy", ""),
                   transitions=data.get("transitions", 0),
                   mode_timeline=[list(e) for e in
                                  data.get("mode_timeline", [])],
                   admitted_at=data.get("admitted_at"),
                   latency=data.get("latency"))


@dataclass
class RunResult:
    """Everything the experiment drivers read off a finished run."""

    workload: str
    mode: str
    cycles: float
    instructions: float
    ipc: float
    # LLC
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    llc_miss_rate: float
    llc_response_flits: float
    llc_response_rate: float
    # L1
    l1_miss_rate: float
    # DRAM
    dram_reads: int
    dram_writes: int
    dram_bytes: float
    # adaptive bookkeeping
    transitions: int = 0
    stall_cycles: float = 0.0
    time_in_private: float = 0.0
    gated_cycles: float = 0.0
    mode_history: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    # multi-program
    programs: list[ProgramStats] = field(default_factory=list)
    # consolidation occupancy timeline: [when, active_tenants] entries
    # recorded at run start and every admission/departure (empty — and
    # elided from the dict form — outside consolidation runs)
    occupancy: list = field(default_factory=list)
    # optional Figure 3 histogram fractions [1, 2, 3-4, 5-8 clusters]
    locality_fractions: Optional[list[float]] = None
    # optional SystemEnergyReport attached by the experiment runner
    energy: Optional[object] = None

    _SCALAR_FIELDS = (
        "workload", "mode", "cycles", "instructions", "ipc",
        "llc_accesses", "llc_hits", "llc_misses", "llc_miss_rate",
        "llc_response_flits", "llc_response_rate", "l1_miss_rate",
        "dram_reads", "dram_writes", "dram_bytes",
        "transitions", "stall_cycles", "time_in_private", "gated_cycles",
    )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; the campaign cache's on-disk record.

        Tuples become lists (JSON has no tuple), adaptive ``decisions``
        flatten their :class:`~repro.core.bandwidth_model.Decision`, and the
        energy report serializes through its own ``to_dict``.
        """
        out = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        out["mode_history"] = [list(entry) for entry in self.mode_history]
        out["decisions"] = [
            [when, {"mode": d.mode.value, "rule": d.rule,
                    "shared_miss_rate": d.shared_miss_rate,
                    "private_miss_rate": d.private_miss_rate,
                    "shared_bw": d.shared_bw, "private_bw": d.private_bw}]
            for when, d in self.decisions
        ]
        out["programs"] = [p.to_dict() for p in self.programs]
        if self.occupancy:
            out["occupancy"] = [list(entry) for entry in self.occupancy]
        out["locality_fractions"] = self.locality_fractions
        out["energy"] = self.energy.to_dict() if self.energy is not None else None
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result (tuple structure and nested objects restored)."""
        from repro.core.bandwidth_model import Decision
        from repro.core.modes import LLCMode
        from repro.power.gpu_power import SystemEnergyReport

        kwargs = {name: data[name] for name in cls._SCALAR_FIELDS}
        kwargs["mode_history"] = [tuple(entry) for entry in data["mode_history"]]
        kwargs["decisions"] = [
            (when, Decision(mode=LLCMode(d["mode"]), rule=d["rule"],
                            shared_miss_rate=d["shared_miss_rate"],
                            private_miss_rate=d["private_miss_rate"],
                            shared_bw=d["shared_bw"],
                            private_bw=d["private_bw"]))
            for when, d in data["decisions"]
        ]
        kwargs["programs"] = [ProgramStats.from_dict(p)
                              for p in data["programs"]]
        kwargs["occupancy"] = [list(entry)
                               for entry in data.get("occupancy", [])]
        kwargs["locality_fractions"] = data["locality_fractions"]
        energy = data.get("energy")
        kwargs["energy"] = (SystemEnergyReport.from_dict(energy)
                            if energy is not None else None)
        return cls(**kwargs)


class Request:
    """One in-flight memory request threading through the LLC pipeline.

    Carries ``(sm, key, mc, slice_local, slice_global)`` from issue to fill
    so the stage methods (:meth:`GPUSystem._read_at_slice`,
    :meth:`GPUSystem._fill_at_slice`, :meth:`GPUSystem._launch_reply`,
    :meth:`GPUSystem._on_fill`, :meth:`GPUSystem._write_at_slice`) can be
    scheduled directly as bound-method callbacks via
    :meth:`~repro.sim.engine.Engine.schedule_call` — no closure is allocated
    per pipeline hop.  Requests are pooled by the owning :class:`GPUSystem`
    (preallocated at construction, recycled at end of life), so steady-state
    traffic allocates nothing per L1 miss.
    """

    __slots__ = ("sm", "key", "mc", "slice_local", "slice_global", "t0")

    def __init__(self, sm: Optional[StreamingMultiprocessor] = None,
                 key: int = -1, mc: int = -1, slice_local: int = -1,
                 slice_global: int = -1):
        self.sm = sm
        self.key = key
        self.mc = mc
        self.slice_local = slice_local
        self.slice_global = slice_global
        # Issue timestamp, maintained only when the system tracks
        # per-tenant request latency (consolidation runs).
        self.t0 = 0.0


class _ProgramContext:
    """One co-running application: its workload, SMs, controller, and its
    own slice of the LLC counters.

    ``controller`` is whatever mode-driving object the program's LLC
    policy installed (``None`` for static policies); see the duck-typed
    surface documented in :mod:`repro.policy.base`.  ``llc_accesses`` /
    ``llc_hits`` accumulate this program's LLC traffic when a policy
    enabled per-program counting
    (:meth:`GPUSystem.enable_program_counters`) — the observation window
    the interval policies read, so a co-runner's misses never move this
    program's controller.
    """

    def __init__(self, program_id: int, workload: Workload, sm_ids: list[int]):
        self.program_id = program_id
        self.workload = workload
        self.sm_ids = sm_ids
        self.kernel_idx = 0
        self.pending_sms = 0
        self.done = False
        self.controller = None
        self.static_mode = LLCMode.SHARED
        self.policy_name = ""
        self.llc_accesses = 0
        self.llc_hits = 0
        # Consolidation bookkeeping: when the tenant enters the machine
        # (0.0 — already there — outside consolidation runs) and its
        # request-latency samples (None unless tracking is enabled).
        self.admitted_at = 0.0
        self.admitted = True
        self.latencies: Optional[list[float]] = None

    @property
    def mode(self) -> LLCMode:
        if self.controller is not None:
            return self.controller.mode
        return self.static_mode


def _scenario_workload(scenario: Scenario):
    """The simulated workload behind a scenario: the lone program's
    workload, or a :class:`MultiProgramWorkload` wrapping the N-program
    mix under the scenario's placement (the generalized Figure 9
    cluster-split rule when none is named)."""
    programs = scenario.programs
    if len(programs) == 1 and scenario.placement is None:
        return programs[0].workload
    placement = None
    if scenario.placement is not None:
        from repro.consolidate.placement import create_placement
        placement = create_placement(scenario.placement)
    workloads = tuple(p.workload for p in programs)
    return MultiProgramWorkload(
        name="+".join(w.name for w in workloads),
        programs=workloads, placement=placement)


def _resolve_policy(policy, policy_params) -> tuple[LLCPolicy, str]:
    """Normalize the ``policy`` argument to ``(instance, reported_name)``.

    The reported name is what :attr:`RunResult.mode` carries: the string
    exactly as requested (so legacy ``"adaptive"`` runs keep reporting
    ``"adaptive"``), or the canonical ``NAME`` for instance/config input.
    """
    if policy is None:
        policy = "shared"  # the historical default
    if isinstance(policy, LLCPolicy):
        if policy_params:
            raise ValueError(
                "policy_params cannot accompany an LLCPolicy instance "
                "(construct the instance with its parameters instead)")
        return policy, type(policy).NAME
    if isinstance(policy, PolicyConfig):
        params = dict(policy.params_dict())
        params.update(policy_params or {})
        return create_policy(policy.name, params), policy.name
    if isinstance(policy, str):
        return create_policy(policy, policy_params), policy
    raise TypeError(
        f"policy must be a name, PolicyConfig or LLCPolicy instance, "
        f"got {type(policy).__name__}")


class GPUSystem:
    """A complete simulated GPU bound to one scenario of programs.

    Args:
        cfg: the architecture configuration (Table 1 baseline + overrides).
        workload: a :class:`~repro.scenario.Scenario` (programs with their
            own policies), a :class:`~repro.workloads.trace.Workload`, or a
            :class:`~repro.workloads.multiprogram.MultiProgramWorkload`.
        policy: legacy one-policy-for-everything kwarg — a registered name
            or alias (``"shared"``, ``"static-private"``, ``"hysteresis"``,
            …), a :class:`~repro.config.PolicyConfig`, or a ready
            :class:`~repro.policy.LLCPolicy` instance.  Rejected alongside
            a :class:`~repro.scenario.Scenario`, which carries per-program
            policies itself.
        policy_params: parameter overrides for a name/config ``policy``
            (rejected alongside an instance, which carries its own).
    """

    def __init__(self, cfg: GPUConfig,
                 workload,
                 policy: Union[str, PolicyConfig, LLCPolicy, None] = None,
                 collect_locality: bool = False,
                 locality_window: float = 1000.0,
                 *,
                 policy_params: Optional[dict] = None):
        if isinstance(workload, Scenario):
            if policy is not None or policy_params:
                raise ValueError(
                    "a Scenario carries per-program policies; the global "
                    "policy=/policy_params= kwargs must be omitted")
            self.scenario = workload
            self._explicit_scenario = True
            # One policy instance per program, scoped to it at bind time.
            # The reported per-program name is the full canonical spec
            # (parameters included), so heterogeneous results stay legible.
            resolved = [
                (_resolve_policy(p.policy, p.policy_params)[0],
                 p.policy_spec())
                for p in workload.programs]
            if len({id(inst) for inst, _ in resolved}) != len(resolved):
                # A shared instance would have its per-program scope
                # clobbered by the second bind() and its stats harvested
                # twice — refuse instead of silently mis-governing.
                raise ValueError(
                    "each program needs its own LLCPolicy instance; the "
                    "same instance cannot govern two programs")
            self._program_policies = resolved
            self.policy = resolved[0][0] if len(resolved) == 1 else None
            self.mode_name = "+".join(name for _, name in resolved)
            self._track_latency = workload.track_latency
            self._admission_times = (list(workload.arrival_times)
                                     if workload.arrival_times is not None
                                     else None)
            workload = _scenario_workload(workload)
        else:
            self.scenario = None
            self._explicit_scenario = False
            self.policy, self.mode_name = _resolve_policy(policy,
                                                          policy_params)
            self._program_policies = None
            self._track_latency = False
            self._admission_times = None
        cfg.validate()
        self.cfg = cfg
        self.workload = workload
        self.engine = Engine()
        self.mapping = make_mapping(cfg.address_mapping,
                                    cfg.num_memory_controllers,
                                    cfg.llc_slices_per_mc,
                                    cfg.dram_banks_per_mc)
        self.topology = make_topology(cfg)
        # Slice/MC selection is hash-based (XOR folds), so the low line-key
        # bits keep their entropy and index the slice sets directly:
        # consecutive lines fill consecutive sets.
        self.llc_slices = [
            LLCSlice(slice_id=i, num_sets=cfg.llc_sets_per_slice,
                     assoc=cfg.llc_assoc, index_shift=0,
                     line_flits=cfg.line_flits,
                     latency=float(cfg.llc_latency_cycles))
            for i in range(cfg.num_llc_slices)
        ]
        self.mcs = [MemoryController(m, cfg, self.mapping)
                    for m in range(cfg.num_memory_controllers)]
        self.sms = [StreamingMultiprocessor(i, cfg) for i in range(cfg.num_sms)]
        self._sm_kernel_done = [True] * cfg.num_sms
        self.global_stall_until = 0.0
        # The system owns bypass state (multi-program needs consensus).
        self.allow_bypass = False
        self.locality = (InterClusterLocalityTracker(locality_window,
                                                     weighted=True)
                         if collect_locality else None)
        # Request pool: enough for every SM to max out its MSHRs and store
        # buffer simultaneously; recycled objects cover transient overshoot.
        self._req_pool: list[Request] = [
            Request() for _ in range(cfg.num_sms
                                     * (cfg.max_outstanding_misses + 16))
        ]
        # Route memoization: the mapping hash is a pure function of the line
        # key, and hot lines are re-requested constantly (that is the
        # paper's whole premise), so cache (mc, slice_local) per key for
        # shared routing and mc per key for private routing.
        self._shared_route: dict[int, tuple[int, int]] = {}
        self._mc_of: dict[int, int] = {}
        # Per-program LLC counter maintenance is opt-in: policies with
        # per-program observation windows enable it from setup(), so runs
        # under purely static/profiled policies pay one bool check per
        # access and nothing more.
        self.count_program_llc = False
        self.programs = self._build_programs(workload)
        if self._admission_times is not None:
            if len(self._admission_times) != len(self.programs):
                raise ValueError(
                    f"{len(self._admission_times)} admission times for "
                    f"{len(self.programs)} programs")
            for prog, when in zip(self.programs, self._admission_times):
                prog.admitted_at = when
                prog.admitted = when == 0.0
        if self._track_latency:
            for prog in self.programs:
                prog.latencies = []
        # Consolidation runs record the tenant-occupancy timeline.
        self._occupancy: Optional[list] = (
            [] if (self._admission_times is not None or self._track_latency)
            else None)
        if self._explicit_scenario:
            if len(self._program_policies) != len(self.programs):
                raise ValueError(
                    f"{len(self._program_policies)} program policies for "
                    f"{len(self.programs)} programs")
            self._policy_bindings = []
            for (pol, name), prog in zip(self._program_policies,
                                         self.programs):
                prog.policy_name = name
                self._policy_bindings.append((pol, [prog]))
        else:
            for prog in self.programs:
                prog.policy_name = self.mode_name
            self._policy_bindings = [(self.policy, None)]
        for pol, scope in self._policy_bindings:
            pol.bind(self, scope)
        for pol, _scope in self._policy_bindings:
            pol.setup()
        # Execution tier: installed last so the batch tier specializes on
        # the post-setup state (policies may have set modes, bypass, or
        # enabled per-program counters).  Installation swaps the pipeline
        # stage methods for closed-form closures; results are byte-identical
        # by contract (see repro.gpu.batchpath), pinned by the tier-parity
        # suite.  Consolidation runs (mid-run admissions, per-request
        # latency tracking) are outside what the batch tier specializes on,
        # so it declines and the event tier runs them.
        self._tier_ineligible = (
            self._track_latency
            or (self._admission_times is not None
                and any(t > 0.0 for t in self._admission_times)))
        self.tier = "event"
        self._tier_flush = None
        if cfg.tier == "batch":
            from repro.gpu.batchpath import install_batchpath
            if install_batchpath(self):
                self.tier = "batch"

    # ------------------------------------------------------------ assembly
    def _build_programs(self, workload) -> list[_ProgramContext]:
        if isinstance(workload, MultiProgramWorkload):
            n = len(workload.programs)
            assignment = workload.sm_assignment(self.cfg.num_sms,
                                                self.cfg.sms_per_cluster)
            if len(assignment) != self.cfg.num_sms:
                raise ValueError(
                    f"placement assigned {len(assignment)} SMs, expected "
                    f"{self.cfg.num_sms}")
            sm_lists: list[list[int]] = [[] for _ in range(n)]
            for sm_id, owner in enumerate(assignment):
                if not 0 <= owner < n:
                    raise ValueError(
                        f"placement assigned SM {sm_id} to tenant {owner} "
                        f"(have {n})")
                sm_lists[owner].append(sm_id)
            empty = [t for t, sms in enumerate(sm_lists) if not sms]
            if empty:
                raise ValueError(
                    f"placement left programs {empty} with no SMs")
            for sm in self.sms:
                sm.program_id = assignment[sm.sm_id]
            return [_ProgramContext(i, w, sm_lists[i])
                    for i, w in enumerate(workload.programs)]
        if not isinstance(workload, Workload):
            raise TypeError("workload must be a Workload or MultiProgramWorkload")
        for sm in self.sms:
            sm.program_id = 0
        return [_ProgramContext(0, workload, list(range(self.cfg.num_sms)))]

    def transition_hook(self, prog: _ProgramContext):
        """The ``on_transition`` callback a policy's controller for
        ``prog`` must invoke after every mode change: stalls the SMs for
        the reconfiguration cost and re-evaluates the MC-router bypass."""
        def hook(now: float, mode: LLCMode, cost: ReconfigCost) -> None:
            self._stall_all(now + cost.stall_cycles)
            self.update_bypass(now)
        return hook

    # -------------------------------------------------------------- bypass
    def update_bypass(self, now: float) -> None:
        """Gate the MC-routers iff every program runs private (Section 4.1:
        mixed-mode co-execution cannot bypass).  Tenants not yet admitted
        have no traffic to route and do not count against the consensus;
        their admission event re-evaluates it."""
        topo = self.topology
        if not hasattr(topo, "note_gate_change"):
            return
        want = all(p.mode is LLCMode.PRIVATE
                   for p in self.programs if p.admitted)
        if want != topo.bypass:
            topo.set_bypass(want)
            topo.note_gate_change(now)

    def _stall_all(self, until: float) -> None:
        if until <= self.global_stall_until:
            return
        self.global_stall_until = until
        for sm in self.sms:
            sm.stall_until(until)
            # The stall moves the SM's next issue opportunity, so a drain
            # that parked on a full MSHR this instant is no longer provably
            # redundant to replay — drop the wake-coalescing marker.
            sm.mshr_blocked_at = -1.0

    # ----------------------------------------------------------------- run
    def run(self, max_cycles: Optional[float] = None) -> RunResult:
        """Execute the workload to completion (or ``max_cycles``).

        Tenants with a later admission time enter through an admission
        event (:meth:`_admit_program`); everyone else launches at time
        zero exactly as the legacy closed-system path always did.
        """
        if self._occupancy is not None:
            self._occupancy.append(
                [0.0, sum(1 for p in self.programs if p.admitted)])
        for prog in self.programs:
            if prog.admitted:
                self._launch_kernel(prog, now=0.0)
            else:
                self.engine.schedule_call(prog.admitted_at,
                                          self._admit_program, prog)
        self.engine.run(until=max_cycles)
        if not all(p.done for p in self.programs) and max_cycles is None:
            raise RuntimeError("simulation deadlocked: event queue drained "
                               "with unfinished programs")
        for prog in self.programs:
            if prog.controller is not None:
                prog.controller.shutdown()
        return self._collect()

    # --------------------------------------------------------- kernel flow
    def _launch_kernel(self, prog: _ProgramContext, now: float) -> None:
        kern = prog.workload.kernels[prog.kernel_idx]
        per_sm = assign_ctas(self.cfg.cta_scheduler, len(kern.ctas),
                             self.cfg.num_sms, self.cfg.sms_per_cluster,
                             sm_whitelist=prog.sm_ids)
        prog.pending_sms = 0
        wake = self._sm_wake
        wakes = []
        for sm_id in prog.sm_ids:
            sm = self.sms[sm_id]
            cta_streams = [(kern.ctas[c].keys, kern.ctas[c].writes)
                           for c in per_sm[sm_id]]
            sm.load_kernel(cta_streams, kern.warps_per_cta,
                           kern.instrs_per_access, now,
                           barrier_interval=kern.barrier_interval,
                           l1_bypass_lo=kern.l1_bypass_lo,
                           l1_bypass_hi=kern.l1_bypass_hi)
            if sm.live_accesses:
                self._sm_kernel_done[sm_id] = False
                prog.pending_sms += 1
                wakes.append((max(now, sm.next_issue_time), wake, sm))
            else:
                self._sm_kernel_done[sm_id] = True
        # One bulk push; seq assignment matches the historical per-SM
        # schedule_call loop exactly (load_kernel schedules nothing).
        self.engine.schedule_batch(wakes)
        if prog.controller is not None:
            prog.controller.on_kernel_launch(now)
        if prog.pending_sms == 0:
            self._finish_kernel(prog, now)

    def _admit_program(self, prog: _ProgramContext) -> None:
        """Admission event: the tenant enters the machine mid-run.

        Its SMs (reserved by the placement at assembly) receive their
        kernels, the MC-router bypass consensus is re-derived over the
        now-admitted set, and any installed execution tier is flushed so
        per-program routing flags match — the same
        ``update_bypass``/``tier_flush`` path a mode transition takes.
        """
        now = self.engine.now
        prog.admitted = True
        if self._occupancy is not None:
            self._occupancy.append([now, self._active_tenants()])
        self.update_bypass(now)
        if self._tier_flush is not None:
            self._tier_flush()
        self._launch_kernel(prog, now)

    def _active_tenants(self) -> int:
        return sum(1 for p in self.programs if p.admitted and not p.done)

    def _finish_kernel(self, prog: _ProgramContext, now: float) -> None:
        prog.kernel_idx += 1
        if prog.kernel_idx >= len(prog.workload.kernels):
            prog.done = True
            if prog.controller is not None:
                prog.controller.shutdown()
            if self._occupancy is not None:
                self._occupancy.append([now, self._active_tenants()])
            return
        self._launch_kernel(prog, now)

    def _maybe_finish_sm(self, sm: StreamingMultiprocessor) -> None:
        if self._sm_kernel_done[sm.sm_id] or not sm.drained:
            return
        self._sm_kernel_done[sm.sm_id] = True
        prog = self.programs[sm.program_id]
        prog.pending_sms -= 1
        if prog.pending_sms == 0:
            self._finish_kernel(prog, self.engine.now)

    # ------------------------------------------------------------ SM loop
    def _sm_wake(self, sm: StreamingMultiprocessor) -> None:
        """Drain the SM's ready-warp queue as far as current time allows.

        One access per ``gap_cycles`` issue slot, warps rotated round-robin.
        A warp whose read misses the L1 blocks until its line's fill; warps
        missing on the same line merge into one MSHR entry.  L1 state is
        allocate-on-fill so repeated reads within a fill window merge rather
        than turning into premature hits.
        """
        sm.wake_scheduled = False
        sm.mshr_blocked_at = -1.0
        now = self.engine.now
        ready = sm.ready
        # This loop runs once per consumed access — the single hottest
        # stretch of Python in the simulator — so invariants are hoisted
        # into locals and the tiny SM helpers (retire_access, requeue,
        # bypasses_l1, WarpContext.at_barrier) are inlined.
        l1 = sm.l1
        l1_lookup = l1.lookup_read
        mshr = sm.mshr
        popleft = ready.popleft
        append = ready.append
        stall_until = self.global_stall_until
        gap = sm.gap_cycles
        instrs = sm.instrs_per_access
        bypass_lo = sm.l1_bypass_lo
        bypass_hi = sm.l1_bypass_hi
        while ready:
            warp = ready[0]
            cursor = warp.cursor
            keys = warp.keys
            nb = warp.next_barrier

            # CTA barrier (__syncthreads): park until siblings arrive.
            if nb is not None and cursor >= nb and cursor < len(keys):
                group = warp.group
                warp.next_barrier = nb + group.interval
                group.arrived += 1
                popleft()
                if group.arrived >= group.live:
                    group.arrived = 0
                    append(warp)
                    ready.extend(group.parked)
                    group.parked.clear()
                else:
                    group.parked.append(warp)
                continue

            issue_at = sm.next_issue_time
            if stall_until > issue_at:
                issue_at = stall_until
            if issue_at < now:
                # The SM was waiting on fills/credits: it resumes issuing
                # from the present, still paced at one access per gap.
                issue_at = now
            key = keys[cursor]
            is_write = warp.writes[cursor]
            bypass = bypass_lo <= key < bypass_hi

            if not is_write and not bypass and l1_lookup(key):
                # L1 hit: purely SM-local, consume eagerly at its own time.
                cursor += 1
                warp.cursor = cursor
                sm.next_issue_time = issue_at + gap
                sm.retired_instructions += instrs
                sm.live_accesses -= 1
                popleft()
                if cursor < len(keys):
                    append(warp)
                elif warp.group is not None:
                    warp.group.on_exhaust(ready)
                continue

            # NoC-bound access: must be issued at its architectural time,
            # and must not mutate any state before that time arrives.
            if issue_at > now:
                if not sm.wake_scheduled:
                    sm.wake_scheduled = True
                    self.engine.schedule_call(issue_at, self._sm_wake, sm)
                return

            if is_write:
                if sm.write_credits <= 0:
                    # Store buffer full: stall until a write retires (the
                    # retirement event re-wakes the SM).
                    return
                sm.write_credits -= 1
                l1.access(key, True)
                cursor += 1
                warp.cursor = cursor
                sm.next_issue_time = issue_at + gap
                sm.retired_instructions += instrs
                sm.live_accesses -= 1
                sm.issued_writes += 1
                self._issue_write(sm, key, issue_at)
                popleft()
                if cursor < len(keys):
                    append(warp)
                elif warp.group is not None:
                    warp.group.on_exhaust(ready)
                continue

            # L1 read miss: the warp blocks on the line (in-order warp).
            entry = mshr.lookup(key)
            if entry is not None:
                # Secondary miss: merge in place (one dict lookup, not two).
                entry.waiters.append(warp)
                mshr.merges += 1
            else:
                if mshr.full:
                    # Head-of-queue warp waits for any MSHR release; the
                    # next fill re-wakes the SM.  Count the structural stall
                    # here — the stall *site* — and remember the instant so
                    # same-instant non-fill wakeups (store-buffer credit
                    # returns) can be coalesced away: only a fill can
                    # unblock an MSHR-full front end.
                    mshr.note_stall()
                    sm.mshr_blocked_at = now
                    return
                entry = mshr.allocate(key, issue_at)
                entry.waiters.append(warp)
                sm.issued_reads += 1
                self._issue_read(sm, key, issue_at)
            if not bypass:
                l1.record_read_miss()
            warp.waiting_on = key
            warp.cursor = cursor + 1
            sm.next_issue_time = issue_at + gap
            sm.retired_instructions += instrs
            sm.live_accesses -= 1
            popleft()
            if warp.exhausted and warp.group is not None:
                warp.group.on_exhaust(ready)
        if sm.drained:
            self._maybe_finish_sm(sm)

    def enable_program_counters(self) -> None:
        """Maintain per-program LLC access/hit counters.

        Policies whose controllers observe a per-program window
        (``miss-rate-threshold``, ``hysteresis``, ``bandit``) call this
        from ``setup()``.  Cost: two integer increments per LLC access,
        paid only when some policy asked for them — static and
        ATD-profiled runs keep the pre-Scenario hot path."""
        self.count_program_llc = True

    # ------------------------------------------------------- request paths
    def _profile(self, sm: StreamingMultiprocessor, key: int, mc: int,
                 slice_global: int, hit: bool) -> None:
        """Feed the program's counter slice and its policy's profiler.

        The profiler branch only observes under shared mode, where the
        outcome of the *shared* organization is being measured.
        Controllers without per-access observation declare
        ``profiler = None`` and cost one attribute check here."""
        prog = self.programs[sm.program_id]
        if self.count_program_llc:
            prog.llc_accesses += 1
            if hit:
                prog.llc_hits += 1
        ctrl = prog.controller
        if ctrl is not None and prog.mode is LLCMode.SHARED:
            profiler = ctrl.profiler
            if profiler is not None and profiler.active:
                profiler.observe_request(key, sm.cluster_id, mc,
                                         slice_global, hit)

    # Requests advance through the pipeline via one event per queue
    # boundary (slice arrival, DRAM return, reply launch).  Each shared
    # server is therefore fed in true arrival order — threading the whole
    # path at issue time would let a request delayed upstream inflate the
    # completion times of later-issued but earlier-arriving requests.
    #
    # Each hop schedules the next stage's *bound method* with the pooled
    # :class:`Request` as its argument (``Engine.schedule_call``), so a full
    # read round trip allocates no closures and no Event objects.

    def _acquire_request(self, sm: StreamingMultiprocessor,
                         key: int) -> Request:
        # Memoized equivalent of repro.core.modes.target_slice: the MC is
        # always address-determined, the slice within it is address- or
        # cluster-determined depending on the program's current mode.
        if self.programs[sm.program_id].mode is LLCMode.PRIVATE:
            mc = self._mc_of.get(key)
            if mc is None:
                mc = self.mapping.mc_of(key)
                self._mc_of[key] = mc
            slice_local = sm.cluster_id
            if slice_local >= self.mapping.slices_per_mc:
                raise ValueError(
                    f"cluster {slice_local} has no private slice "
                    f"({self.mapping.slices_per_mc} slices per MC)"
                )
        else:
            route = self._shared_route.get(key)
            if route is None:
                route = (self.mapping.mc_of(key), self.mapping.slice_of(key))
                self._shared_route[key] = route
            mc, slice_local = route
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.sm = sm
            req.key = key
            req.mc = mc
            req.slice_local = slice_local
        else:
            req = Request(sm, key, mc, slice_local)
        req.slice_global = mc * self.cfg.llc_slices_per_mc + slice_local
        return req

    def _issue_read(self, sm: StreamingMultiprocessor, key: int,
                    when: float) -> None:
        req = self._acquire_request(sm, key)
        if self._track_latency:
            req.t0 = when
        if self.locality is not None:
            self.locality.note(key, sm.cluster_id, when)
        arrive = self.topology.request_arrival(when, sm.sm_id, req.mc,
                                               req.slice_local,
                                               is_write=False)
        self.engine.schedule_call(arrive, self._read_at_slice, req)

    def _read_at_slice(self, req: Request) -> None:
        now = self.engine.now
        sl = self.llc_slices[req.slice_global]
        hit, done, wb_key, _ = sl.access(now, req.key, is_write=False)
        self._profile(req.sm, req.key, req.mc, req.slice_global, hit)
        if wb_key is not None:
            self.mcs[req.mc].write(done, wb_key)
        if hit:
            # ``done`` is the response tail-flit exit plus pipeline latency.
            self.engine.schedule_call(done, self._launch_reply, req)
        else:
            dram_ready = self.mcs[req.mc].read(done, req.key)
            self.engine.schedule_call(dram_ready, self._fill_at_slice, req)

    def _fill_at_slice(self, req: Request) -> None:
        sl = self.llc_slices[req.slice_global]
        exit_time = sl.fill_response(self.engine.now)
        self.engine.schedule_call(exit_time + sl.latency,
                                  self._launch_reply, req)

    def _launch_reply(self, req: Request) -> None:
        reply = self.topology.reply_arrival(self.engine.now, req.mc,
                                            req.slice_local, req.sm.sm_id,
                                            is_write=False)
        self.engine.schedule_call(reply, self._on_fill, req)

    def _issue_write(self, sm: StreamingMultiprocessor, key: int,
                     when: float) -> None:
        req = self._acquire_request(sm, key)
        if self.locality is not None:
            self.locality.note(key, sm.cluster_id, when)
        arrive = self.topology.request_arrival(when, sm.sm_id, req.mc,
                                               req.slice_local,
                                               is_write=True)
        self.engine.schedule_call(arrive, self._write_at_slice, req)

    def _write_at_slice(self, req: Request) -> None:
        now = self.engine.now
        sm = req.sm
        sl = self.llc_slices[req.slice_global]
        mc = req.mc
        prog_private = self.programs[sm.program_id].mode is LLCMode.PRIVATE
        hit, done, wb_key, dram_write = sl.access(now, req.key, is_write=True,
                                                  write_through=prog_private)
        self._profile(sm, req.key, mc, req.slice_global, hit)
        if wb_key is not None:
            self.mcs[mc].write(done, wb_key)
        if dram_write:
            # Write-through drains to DRAM in the background (it occupies
            # bank and bus, but the store retires at the LLC).
            self.mcs[mc].write(done, req.key)
        # The request's life ends at the slice; the store-buffer credit
        # returns when the write retires there (fire-and-forget).
        req.sm = None
        self._req_pool.append(req)
        self.engine.schedule_call(max(done, now), self._on_write_retired, sm)

    def _on_write_retired(self, sm: StreamingMultiprocessor) -> None:
        sm.write_credits += 1
        # Coalesce duplicate same-instant wakeups: if the SM already drained
        # at this exact instant and parked on a full MSHR file, a returned
        # store credit cannot unblock it (the head warp is a read), so the
        # wake would replay the drain loop to the identical stall.
        if (not sm.wake_scheduled
                and sm.mshr_blocked_at != self.engine.now):
            self._sm_wake(sm)

    def _on_fill(self, req: Request) -> None:
        sm = req.sm
        key = req.key
        if self._track_latency:
            self.programs[sm.program_id].latencies.append(
                self.engine.now - req.t0)
        req.sm = None
        self._req_pool.append(req)
        waiters = sm.mshr.release(key)
        if not sm.bypasses_l1(key):
            sm.l1.fill(key)
        sm.wake_warps(key, waiters)
        if not sm.wake_scheduled:
            self._sm_wake(sm)
        elif sm.drained:
            self._maybe_finish_sm(sm)

    # ------------------------------------------------------------- results
    def _collect(self) -> RunResult:
        cycles = max(self.engine.now, 1e-9)
        instructions = sum(sm.retired_instructions for sm in self.sms)
        llc_accesses = sum(sl.accesses for sl in self.llc_slices)
        llc_hits = sum(sl.hits for sl in self.llc_slices)
        llc_misses = llc_accesses - llc_hits
        response_flits = sum(sl.response_flits for sl in self.llc_slices)
        l1_reads = sum(sm.l1.read_accesses for sm in self.sms)
        l1_misses = sum(sm.l1.read_misses for sm in self.sms)
        dram_reads = sum(mc.read_requests for mc in self.mcs)
        dram_writes = sum(mc.write_requests for mc in self.mcs)

        if len(self._policy_bindings) == 1:
            policy_stats = self._policy_bindings[0][0].collect_stats(cycles)
        else:
            # Per-program policies: aggregate in program order, mirroring
            # the one-policy fold exactly (same float accumulation order).
            policy_stats = PolicyStats()
            for pol, _scope in self._policy_bindings:
                part = pol.collect_stats(cycles)
                policy_stats.transitions += part.transitions
                policy_stats.stall_cycles += part.stall_cycles
                policy_stats.time_in_private += part.time_in_private
                policy_stats.mode_history.extend(part.mode_history)
                policy_stats.decisions.extend(part.decisions)

        gated = 0.0
        if hasattr(self.topology, "gated_time"):
            gated = self.topology.gated_time(cycles)

        program_stats = []
        if len(self.programs) > 1 or self._track_latency:
            for prog in self.programs:
                instrs = sum(self.sms[s].retired_instructions
                             for s in prog.sm_ids)
                stats = ProgramStats(
                    name=prog.workload.name, instructions=instrs,
                    ipc=instrs / cycles)
                if self._explicit_scenario:
                    stats.policy = prog.policy_name
                    ctrl = prog.controller
                    if ctrl is not None:
                        stats.transitions = int(ctrl.transitions)
                        stats.mode_timeline = [
                            [t, m.value, r] for t, m, r in ctrl.mode_history]
                    else:
                        stats.mode_timeline = [
                            [0.0, prog.static_mode.value, "static"]]
                if self._admission_times is not None:
                    stats.admitted_at = prog.admitted_at
                if prog.latencies is not None:
                    from repro.consolidate.metrics import latency_percentiles
                    stats.latency = latency_percentiles(prog.latencies)
                program_stats.append(stats)

        fractions = None
        if self.locality is not None:
            self.locality.finalize()
            fractions = self.locality.fractions()

        return RunResult(
            workload="+".join(p.workload.name for p in self.programs),
            mode=self.mode_name,
            cycles=cycles,
            instructions=instructions,
            ipc=instructions / cycles,
            llc_accesses=llc_accesses,
            llc_hits=llc_hits,
            llc_misses=llc_misses,
            llc_miss_rate=llc_misses / llc_accesses if llc_accesses else 0.0,
            llc_response_flits=response_flits,
            llc_response_rate=response_flits / cycles,
            l1_miss_rate=l1_misses / l1_reads if l1_reads else 0.0,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            dram_bytes=float(dram_reads + dram_writes) * self.cfg.line_bytes,
            transitions=int(policy_stats.transitions),
            stall_cycles=policy_stats.stall_cycles,
            time_in_private=policy_stats.time_in_private / len(self.programs),
            gated_cycles=gated,
            mode_history=sorted(policy_stats.mode_history),
            decisions=policy_stats.decisions,
            programs=program_stats,
            occupancy=list(self._occupancy) if self._occupancy else [],
            locality_fractions=fractions,
        )
