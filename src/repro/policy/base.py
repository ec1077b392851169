"""The LLC-policy abstraction: base class, parameter schemas, run stats.

The paper's contribution is a *policy* — when to run the memory-side LLC
shared vs private — so the simulator treats policies as first-class,
registered components instead of an if/elif ladder inside
:class:`~repro.gpu.system.GPUSystem`.  A policy is a class with

* a registered ``NAME`` (plus optional ``ALIASES`` — the historical string
  triad ``"shared"``/``"private"``/``"adaptive"`` resolves through these),
* a declared parameter schema (:class:`PolicyParam` tuples) that the CLI,
  the campaign cache keys, and ``repro policy list`` all read,
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class PolicyParam:
    """One declared, typed policy parameter.

    Args:
        name: parameter key as it appears in ``--policy name:key=value``.
        type: expected Python type (``int``/``float``/``bool``/``str``).
        default: value used when the parameter is omitted.
        doc: one-line description for ``repro policy list``.
        choices: optional closed set of allowed values.
        bounds: optional inclusive ``(low, high)`` range of allowed
            values; ``high`` may be ``None`` (unbounded above).
    """

    name: str
    type: type
    default: object
    doc: str = ""
    choices: Optional[tuple] = None
    bounds: Optional[tuple] = None

    def coerce(self, value):
        """Validate ``value`` against the schema, widening int → float.

        Raises:
            ValueError: on a type mismatch or a value outside ``choices``
                or ``bounds``.
        """
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if self.type is int and isinstance(value, bool):
            raise ValueError(
                f"parameter {self.name!r} expects int, got bool {value!r}")
        if not isinstance(value, self.type):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {value!r} ({type(value).__name__})")
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of "
                f"{list(self.choices)}, got {value!r}")
        if self.bounds is not None:
            low, high = self.bounds
            # ``not >=`` / ``not <=`` so a NaN fails the check too.
            if not value >= low or (high is not None and not value <= high):
                allowed = f">= {low}" if high is None else \
                    f"in [{low}, {high}]"
                raise ValueError(f"parameter {self.name!r} must be "
                                 f"{allowed}, got {value!r}")
        return value


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


class LLCPolicy:
    """Base class for registered LLC-mode policies.

    Subclasses set ``NAME`` (the canonical registry key), optionally
    ``ALIASES`` and ``PARAMS``, and override the lifecycle hooks they need.
    Construction validates and coerces keyword parameters against
    ``PARAMS``; the canonical values land in ``self.params``.
    """

    #: Canonical registered name (``repro policy list`` key).
    NAME: str = ""
    #: Alternate names that resolve to this policy (the legacy triad).
    ALIASES: tuple[str, ...] = ()
    #: One-line description shown by ``repro policy list``.
    DESCRIPTION: str = ""
    #: Declared parameter schema.
    PARAMS: tuple[PolicyParam, ...] = ()

    def __init__(self, **params):
        self.params = self.canonical_params(params, fill_defaults=True)
        self.system = None
        self._scope = None

    # ---------------------------------------------------------- parameters
    @classmethod
    def param_schema(cls) -> dict[str, PolicyParam]:
        return {p.name: p for p in cls.PARAMS}

    @classmethod
    def canonical_params(cls, params: Optional[dict],
                         fill_defaults: bool = False) -> dict:
        """Validate/coerce ``params`` against the schema.

        With ``fill_defaults`` every declared parameter is present in the
        result (construction); without, only the explicitly given ones are
        (cache-key canonicalization: adding a default later must not
        reshuffle previously computed keys).
        """
        schema = cls.param_schema()
        params = dict(params or {})
        unknown = set(params) - set(schema)
        if unknown:
            raise ValueError(
                f"policy {cls.NAME!r} has no parameters {sorted(unknown)} "
                f"(available: {sorted(schema) or 'none'})")
        out = {name: schema[name].coerce(value)
               for name, value in params.items()}
        if fill_defaults:
            for name, spec in schema.items():
                out.setdefault(name, spec.default)
        return out

    # ----------------------------------------------------------- lifecycle
    def bind(self, system, programs=None) -> None:
        """Attach the policy to its :class:`~repro.gpu.system.GPUSystem`.

        ``programs`` scopes the policy to a subset of the system's
        programs (the Scenario API's per-program policies); ``None`` — the
        legacy shape — means the policy governs every program.
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

    # ------------------------------------------------------------- display
    @classmethod
    def describe(cls) -> dict:
        """Registry metadata row for ``repro policy list``."""
        return {
            "name": cls.NAME,
            "aliases": list(cls.ALIASES),
            "description": cls.DESCRIPTION,
            "params": [{"name": p.name, "type": p.type.__name__,
                        "default": p.default, "doc": p.doc}
                       for p in cls.PARAMS],
        }
