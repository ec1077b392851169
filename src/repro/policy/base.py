"""The LLC-policy abstraction: base class, registry, run stats.

The paper's contribution is a *policy* — when to run the memory-side LLC
shared vs private — so the simulator treats policies as first-class,
registered components instead of an if/elif ladder inside
:class:`~repro.gpu.system.GPUSystem`.  A policy is a
:class:`~repro.analysis.registry.Component` (the one registry idiom it
shares with placements, arrival processes and check rules) with

* a registered ``NAME`` (plus optional ``ALIASES`` — the historical string
  triad ``"shared"``/``"private"``/``"adaptive"`` resolves through these),
* a declared parameter schema (:class:`~repro.analysis.registry.Param`
  tuples) that the CLI, the campaign cache keys, and ``repro policy
  list`` all read,
* lifecycle hooks the system invokes: :meth:`LLCPolicy.bind` at assembly,
  :meth:`LLCPolicy.setup` once programs exist, and
  :meth:`LLCPolicy.collect_stats` at harvest.

Per-program *mode driving* happens through controller objects a policy
installs on each :class:`~repro.gpu.system._ProgramContext` (attribute
``controller``).  Every built-in dynamic policy's controller subclasses
:class:`~repro.core.controller.ModeController`, which provides the surface
the system reads and leaves only the decision to the subclass:

* ``mode`` — the program's current :class:`~repro.core.modes.LLCMode`;
* ``on_kernel_launch(now)`` / ``shutdown()`` — lifecycle;
* ``transitions`` / ``total_stall_cycles`` / ``time_in_private(end)`` /
  ``mode_history`` / ``decisions`` — bookkeeping the run result reports;
* ``profiler`` — a :class:`~repro.core.sampler.ProfilingState` or ``None``
  (``None`` keeps the per-access hot path free of profiling work).

Static policies install no controller at all, which keeps the request hot
path byte-for-byte identical to the pre-policy-layer simulator.

:data:`POLICIES` is the registry every consumer — the system, the
campaign layer, the ``repro policy`` verb, the shootout — resolves names
through; the module-level functions below are its methods under their
historical names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.registry import Component, Registry


@dataclass
class PolicyStats:
    """Policy bookkeeping harvested into the :class:`RunResult`.

    ``time_in_private`` is summed over programs (the system divides by the
    program count, mirroring the pre-policy-layer arithmetic exactly).
    """

    transitions: float = 0.0
    stall_cycles: float = 0.0
    time_in_private: float = 0.0
    mode_history: list = field(default_factory=list)
    decisions: list = field(default_factory=list)


class LLCPolicy(Component):
    """Base class for registered LLC-mode policies.

    Subclasses set ``NAME`` (the canonical registry key), optionally
    ``ALIASES`` and ``PARAMS``, and override the lifecycle hooks they need.
    Policy cache keys keep only the explicit parameters
    (:func:`canonical_policy_params` fills in no defaults).
    """

    KIND = "LLC policy"

    def __init__(self, **params):
        super().__init__(**params)
        self.system = None
        self._scope = None

    # ----------------------------------------------------------- lifecycle
    def bind(self, system, programs=None) -> None:
        """Attach the policy to its :class:`~repro.gpu.system.GPUSystem`.

        ``programs`` scopes the policy to a subset of the system's
        programs (the Scenario API's per-program policies); ``None`` — the
        legacy shape — means the policy governs every program.  The
        system resets ``system`` to ``None`` once its run has collected,
        so a finished system holds no reference cycle.
        """
        self.system = system
        self._scope = list(programs) if programs is not None else None

    @property
    def programs(self) -> list:
        """The program contexts this policy governs (scope or all)."""
        if self._scope is not None:
            return self._scope
        return self.system.programs

    def setup(self) -> None:
        """Configure the bound system (programs exist; the run has not
        started).  Install controllers, set static modes, switch slice
        write policies, engage the NoC bypass — whatever the policy needs.
        The default is the all-shared baseline: nothing."""

    def collect_stats(self, cycles: float) -> PolicyStats:
        """Aggregate per-program controller bookkeeping at harvest time.

        The default reproduces the historical aggregation exactly
        (iteration order, float accumulation order) so the ported triad
        stays byte-identical.
        """
        stats = PolicyStats()
        for prog in self.programs:
            ctrl = prog.controller
            if ctrl is None:
                continue
            stats.transitions += ctrl.transitions
            stats.stall_cycles += ctrl.total_stall_cycles
            stats.time_in_private += ctrl.time_in_private(cycles)
            stats.mode_history.extend((t, m.value, r)
                                      for t, m, r in ctrl.mode_history)
            stats.decisions.extend(ctrl.decisions)
        return stats


#: Every registered LLC policy (aliases resolve).
POLICIES: Registry[LLCPolicy] = Registry(LLCPolicy)

register_policy = POLICIES.register
policy_class = POLICIES.resolve
canonical_policy_name = POLICIES.canonical_name
available_policies = POLICIES.available
create_policy = POLICIES.create
canonical_policy_params = POLICIES.canonical_params
