"""Interval-window policies: a controller that decides every few cycles.

:class:`IntervalModeController` is the per-program driver behind
``miss-rate-threshold``, ``hysteresis`` and ``bandit``: an engine event
fires every ``interval`` cycles, the controller reads *its own program's*
LLC hit/miss counters accumulated since the previous tick (the system
slices the counters by program when a policy enables them — no per-access
hooks beyond two integer increments), and a subclass's :meth:`evaluate`
decides whether to flip the program's mode.  The mode bookkeeping is
:class:`~repro.core.controller.ModeController`'s, so transitions pay the
full :class:`~repro.core.reconfig.Reconfigurator` cost and stall the SMs
through the system's transition hook, exactly like the paper's controller.

:class:`IntervalPolicy` is the registered-policy side: it declares the
shared window parameters (:data:`INTERVAL`, :data:`MIN_SAMPLES`) and
installs one ``CONTROLLER`` per program; a subclass supplies only the
controller class and its decision parameters
(:meth:`IntervalPolicy.controller_params`).

Because the observation window is the live organization's own miss rate,
these policies are deliberately *cheaper and dumber* than paper-adaptive
(no ATD, no bandwidth model) — that contrast is what the policy-shootout
experiment measures.  In multi-program mixes every controller sees an
honest per-program window: co-runner traffic never moves it (the
pre-Scenario layer read the global slice counters instead, so a mix's
controllers chased each other's miss rates).
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.analysis.registry import Param
from repro.core.bandwidth_model import Decision
from repro.core.controller import ModeController
from repro.core.modes import LLCMode
from repro.policy.base import LLCPolicy

#: Window length every interval policy declares first.
INTERVAL = Param("interval", int, 1_500,
                 "cycles per observation window", bounds=(1, None))
#: Sample floor every interval policy declares last.
MIN_SAMPLES = Param("min_samples", int, 128,
                    "minimum LLC accesses per window to act on",
                    bounds=(1, None))


class IntervalModeController(ModeController):
    """Drives one program's LLC mode from its windowed miss rates.

    ``prog`` is the :class:`~repro.gpu.system._ProgramContext` whose
    ``llc_accesses``/``llc_hits`` counters the controller observes; the
    installing policy must call
    :meth:`~repro.gpu.system.GPUSystem.enable_program_counters` so the
    system maintains them.  ``profiler`` stays ``None``, so the
    per-access profiling hook stays idle.
    """

    def __init__(self, cfg, engine, system, prog, interval_cycles: int,
                 min_samples: int, **kwargs):
        super().__init__(cfg, engine, system, **kwargs)
        # The program holds its controller, so the way back is weak.
        self._prog = weakref.ref(prog)
        self.interval_cycles = interval_cycles
        self.min_samples = min_samples
        self._seen_accesses = 0
        self._seen_hits = 0

    @property
    def prog(self):
        """The governed program context (alive as long as its system)."""
        return self._prog()

    # --------------------------------------------------------------- ticks
    def _begin(self, now: float) -> None:
        self._baseline()
        self._schedule(self.interval_cycles, self._tick)

    def _baseline(self) -> None:
        self._seen_accesses = self.prog.llc_accesses
        self._seen_hits = self.prog.llc_hits

    def _tick(self) -> None:
        now = self.engine.now
        prev_acc, prev_hits = self._seen_accesses, self._seen_hits
        self._baseline()
        window = self._seen_accesses - prev_acc
        if window >= self.min_samples:
            miss_rate = 1.0 - (self._seen_hits - prev_hits) / window
            verdict = None if self.force_shared else self.evaluate(miss_rate)
            if verdict is not None:
                to_mode, rule = verdict
                self.decisions.append((now, self._decision(to_mode, rule,
                                                           miss_rate)))
                self._transition(now, to_mode, rule)
        self._schedule(self.interval_cycles, self._tick)

    def evaluate(self, miss_rate: float
                 ) -> Optional[tuple[LLCMode, str]]:
        """Subclass decision point: the windowed miss rate of the *current*
        organization in, ``(target_mode, rule)`` out (or ``None``)."""
        raise NotImplementedError

    def _decision(self, to_mode: LLCMode, rule: str,
                  miss_rate: float) -> Decision:
        # The window observed whichever organization was live; the other
        # organization was not measured (these policies carry no ATD), so
        # its field is recorded as 0.0.
        shared_mr = miss_rate if self.mode is LLCMode.SHARED else 0.0
        private_mr = miss_rate if self.mode is LLCMode.PRIVATE else 0.0
        return Decision(mode=to_mode, rule=rule, shared_miss_rate=shared_mr,
                        private_miss_rate=private_mr,
                        shared_bw=0.0, private_bw=0.0)


class IntervalPolicy(LLCPolicy):
    """A policy that installs one ``CONTROLLER`` per governed program.

    Subclasses declare ``PARAMS`` as ``(INTERVAL, ..., MIN_SAMPLES)`` and
    return the controller's own keyword arguments from
    :meth:`controller_params`.
    """

    #: The :class:`IntervalModeController` subclass to install.
    CONTROLLER: type[IntervalModeController]

    def controller_params(self) -> dict:
        """Decision keyword arguments for ``CONTROLLER`` (beyond the
        window and the system wiring)."""
        raise NotImplementedError

    def setup(self) -> None:
        system = self.system
        system.enable_program_counters()
        p = self.params
        for prog in self.programs:
            prog.controller = self.CONTROLLER(
                system.cfg, system.engine, system, prog,
                interval_cycles=p["interval"],
                min_samples=p["min_samples"],
                on_transition=system.transition_hook(prog),
                force_shared=prog.workload.uses_atomics,
                **self.controller_params(),
            )
