"""First-class run scenarios: programs with their own LLC policies.

The historical run surface — ``GPUSystem(cfg, workload, policy=...)`` —
models every simulation as "one workload under one global LLC policy",
which cannot express the paper's sharpest multiprogram case (Figure 15):
program A running ``static-private`` while co-runner B runs
``paper-adaptive``.  The Scenario API makes the *program* the unit of
declaration instead:

* :class:`ProgramSpec` — one co-running application: its workload plus the
  LLC policy (and parameters) that governs *its* clusters' slices;
* :class:`Scenario` — an ordered set of programs sharing the GPU.  Two
  programs co-execute under the Figure 9 placement by default; N-tenant
  consolidation runs attach a placement spec, per-tenant admission times
  and request-latency tracking (see :mod:`repro.consolidate`).

``GPUSystem`` accepts a :class:`Scenario` wherever it accepted a workload.
The old ``policy=``/``policy_params=`` kwargs still work, and build no
scenario: they bind one policy instance over every program at once.  That
differs from a scenario that gives each program its own instance, where
each binding sees only its program.  A global oracle probes the whole mix
rather than each program alone, and a global ``static-private`` also
flips every slice's default write policy to write-through, which it does
only when it covers every program.

The CLI mix grammar lives here too::

    GEMM:paper-adaptive+SN:static-private
    GEMM:hysteresis:dwell=3,interval=800+SN

Each ``+``-separated entry is ``BENCHMARK[:POLICY[:key=value,...]]``; an
entry without a policy inherits the run's default.  :func:`parse_mix`
returns ``(benchmark, PolicyConfig | None)`` pairs; benchmark validation is
the caller's job (the catalog is not imported here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.config import PolicyConfig
from repro.policy import LLCPolicy
from repro.workloads.trace import Workload


@dataclass
class ProgramSpec:
    """One co-running application and the LLC policy that governs it.

    Attributes:
        workload: the program's :class:`~repro.workloads.trace.Workload`.
            Co-running programs must occupy disjoint address spaces (the
            generator's ``address_offset`` / :func:`~repro.workloads.
            multiprogram.make_mix` handle this).
        policy: the program's LLC policy — a registered name or alias, a
            :class:`~repro.config.PolicyConfig`, or a ready
            :class:`~repro.policy.LLCPolicy` instance.  ``None`` means the
            scenario-level default (``"shared"``, the historical default).
        policy_params: parameter overrides for a name/config ``policy``
            (rejected alongside an instance, which carries its own).
    """

    workload: Workload
    policy: Union[str, PolicyConfig, LLCPolicy, None] = None
    policy_params: Optional[dict[str, object]] = None

    def policy_spec(self) -> str:
        """Canonical ``NAME[:k=v,...]`` rendering of the program's policy
        (instances render as their registered ``NAME``)."""
        if isinstance(self.policy, LLCPolicy):
            return type(self.policy).NAME
        if isinstance(self.policy, PolicyConfig):
            return self.policy.spec()
        name = self.policy if self.policy is not None else "shared"
        return PolicyConfig.of(name, self.policy_params).spec()


@dataclass
class Scenario:
    """An ordered set of programs sharing the GPU, each with its policy.

    One entry is a single-program run; N entries co-execute under the
    generalized Figure 9 cluster-split placement (every cluster divided
    between the tenants) unless ``placement`` names another registered
    SM-placement policy.  The consolidation fields all default to the
    legacy closed-system shape so existing scenarios — and their golden
    captures — stay byte-identical:

    Attributes:
        placement: ``NAME[:k=v,...]`` spec of a registered placement from
            :mod:`repro.consolidate.placement` (``None`` = cluster-split).
        arrival_times: per-tenant admission times in core cycles
            (nondecreasing, first entry 0.0); ``None`` means everyone is
            present at time zero.  Tenants admitted later launch via an
            admission event that re-derives LLC routing.
        track_latency: record per-request round-trip latencies per tenant
            and report p50/p95/p99 in the program stats.  Both execution
            tiers record them.
    """

    programs: list[ProgramSpec] = field(default_factory=list)
    name: Optional[str] = None
    placement: Optional[str] = None
    arrival_times: Optional[list[float]] = None
    track_latency: bool = False

    def __post_init__(self) -> None:
        if not self.programs:
            raise ValueError("a Scenario needs at least one ProgramSpec")
        if self.name is None:
            self.name = "+".join(p.workload.name for p in self.programs)
        times = self.arrival_times
        if times is not None:
            if len(times) != len(self.programs):
                raise ValueError(
                    f"{len(times)} arrival times for "
                    f"{len(self.programs)} programs")
            if times and times[0] != 0.0:
                raise ValueError("the first tenant must arrive at 0.0")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ValueError("arrival times must be nondecreasing")

    # ------------------------------------------------------- constructors
    @staticmethod
    def single(workload: Workload,
               policy: Union[str, PolicyConfig, LLCPolicy, None] = None,
               policy_params: Optional[dict[str, object]] = None
               ) -> "Scenario":
        """A one-program scenario (the legacy run shape)."""
        return Scenario([ProgramSpec(workload, policy, policy_params)])

    @staticmethod
    def mix(*programs: ProgramSpec, name: Optional[str] = None) -> "Scenario":
        """A multi-program scenario from explicit :class:`ProgramSpec`\\ s."""
        return Scenario(list(programs), name=name)

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.programs)

    def describe(self) -> str:
        """Human-readable ``wl:policy+wl:policy`` tag for logs/results."""
        return "+".join(f"{p.workload.name}:{p.policy_spec()}"
                        for p in self.programs)


def parse_mix_entry(text: str) -> tuple[str, Optional[PolicyConfig]]:
    """Parse one mix entry: ``BENCHMARK[:POLICY[:key=value,...]]``.

    Returns ``(benchmark, policy_config_or_None)``.  The policy spec, when
    present, parses through :meth:`PolicyConfig.from_spec` — same grammar,
    same errors as ``--policy``.
    """
    bench, sep, policy_text = text.partition(":")
    bench = bench.strip()
    if not bench:
        raise ValueError(f"mix entry {text!r} has no benchmark")
    if not sep or not policy_text.strip():
        return bench, None
    return bench, PolicyConfig.from_spec(policy_text.strip())


def parse_mix(text: str) -> list[tuple[str, Optional[PolicyConfig]]]:
    """Parse the full mix grammar: ``ENTRY+ENTRY``.

    ``+`` separates programs, so policy parameter *values* inside a mix
    must avoid it (write ``1000.0``, not ``1e+3``).
    """
    entries = [tok.strip() for tok in text.split("+")]
    if any(not tok for tok in entries):
        raise ValueError(f"mix {text!r} has an empty program entry")
    return [parse_mix_entry(tok) for tok in entries]


def format_mix_entry(bench: str,
                     policy: Optional[PolicyConfig] = None) -> str:
    """Render one mix entry canonically: the inverse of
    :func:`parse_mix_entry`.

    A ``None`` policy renders as the bare benchmark (the entry inherits
    the run's default), matching what :func:`parse_mix_entry` returns
    for it.  The rendered text must survive a ``+``-split re-parse, so
    policy values containing ``+`` (scientific notation like ``1e+3``)
    are rejected here, symmetrically with the parser's documented
    restriction.
    """
    if not bench or not bench.strip():
        raise ValueError("mix entry has no benchmark")
    if policy is None:
        return bench
    spec = policy.spec()
    if "+" in spec:
        raise ValueError(
            f"policy spec {spec!r} contains '+', which the mix grammar "
            f"reserves as the program separator (spell values without "
            f"scientific notation)")
    return f"{bench}:{spec}"


def format_mix(entries: Iterable[tuple[str, Optional[PolicyConfig]]]
               ) -> str:
    """Render ``(benchmark, PolicyConfig | None)`` pairs as mix text.

    The canonical inverse of :func:`parse_mix`:
    ``parse_mix(format_mix(entries)) == entries`` for every well-formed
    entry list (parameter ordering is normalized by
    :class:`~repro.config.PolicyConfig` itself, so a round trip through
    the text form is idempotent).  This *is* the service wire format for
    mixes, so both directions live next to each other.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("a mix needs at least one program entry")
    return "+".join(format_mix_entry(bench, policy)
                    for bench, policy in entries)
