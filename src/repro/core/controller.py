"""LLC mode controllers: one skeleton, and the paper's adaptive controller.

:class:`ModeController` is the bookkeeping every dynamic policy's
per-program controller shares: the current mode, the reconfigurator that
prices each transition, the mode history and decision record, and the
sequence numbers of the engine timers the controller queued (cancelled by
:meth:`shutdown`, since a recurring timer would otherwise keep the
simulation alive forever).
Subclasses add only their decision logic.

:class:`AdaptiveController` is the paper's (Section 4.3):

* the LLC starts shared; a profiling phase runs for ``profile_cycles``;
* at phase end, Rules #1/#2 (via :func:`repro.core.bandwidth_model.decide_mode`)
  may flip the LLC to private — stalling the SMs for the reconfiguration
  cost;
* at every ``epoch_cycles`` boundary and at every kernel launch the LLC
  reverts to shared (Rule #3) and profiling restarts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.config import GPUConfig
from repro.core.bandwidth_model import Decision, decide_mode
from repro.core.modes import LLCMode
from repro.core.reconfig import Reconfigurator

if TYPE_CHECKING:
    from repro.core.sampler import ProfilingState
    from repro.sim.engine import Engine


def _fire(fn: Callable[[], None]) -> None:
    """Engine callback of a controller timer: run it, continue nothing."""
    fn()


class ModeController:
    """Drives one program's LLC mode; subclasses decide when to switch.

    ``on_transition(now, mode, cost)`` is invoked after every mode change
    so the system can stall its SMs for ``cost.stall_cycles``.
    ``force_shared`` pins the program shared (the atomics policy, Section
    4.1): subclasses must not decide while it is set.
    """

    #: Per-access profiling state; ``None`` keeps the hot path idle.
    profiler: Optional[ProfilingState] = None

    def __init__(self, cfg: GPUConfig, engine: Engine, system,
                 on_transition: Optional[Callable] = None,
                 force_shared: bool = False):
        self.cfg = cfg
        self.engine = engine
        self.system = system
        self.on_transition = on_transition
        self.force_shared = force_shared
        self.mode = LLCMode.SHARED
        self.reconfigurator = Reconfigurator(cfg.adaptive)
        self.decisions: list[tuple[float, Decision]] = []
        self.mode_history: list[tuple[float, LLCMode, str]] = []
        self._timers: list[int] = []
        self._started = False

    # --------------------------------------------------------------- wiring
    def start(self, now: float) -> None:
        """Begin governing (called once, at the first kernel launch)."""
        if self._started:
            return
        self._started = True
        self.mode_history.append((now, self.mode, "start"))
        self._begin(now)

    def _begin(self, now: float) -> None:
        """Subclass hook: schedule the first decision."""

    def on_kernel_launch(self, now: float) -> None:
        """A kernel launches; the default ignores all but the first."""
        self.start(now)

    def shutdown(self) -> None:
        """Cancel the pending timers and let go of the system (workload
        finished), so a finished run holds no reference cycle."""
        self.engine.cancel(self._timers)
        self._timers.clear()
        self.system = self.on_transition = None

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Queue ``fn()`` ``delay`` cycles from now as a cancellable
        timer."""
        engine = self.engine
        self._timers.append(engine.schedule_call(engine.now + delay,
                                                 _fire, fn))

    def _transition(self, now: float, to_mode: LLCMode, reason: str) -> None:
        cost = self.reconfigurator.transition(self.system, now, to_mode)
        self.mode = to_mode
        self.mode_history.append((now, to_mode, reason))
        if self.on_transition is not None:
            self.on_transition(now, to_mode, cost)

    # ---------------------------------------------------------------- stats
    @property
    def transitions(self) -> int:
        return self.reconfigurator.transitions

    @property
    def total_stall_cycles(self) -> float:
        return self.reconfigurator.total_stall_cycles

    def time_in_private(self, end_time: float) -> float:
        """Cycles spent in private mode up to ``end_time``."""
        total = 0.0
        current_mode = LLCMode.SHARED
        current_start = 0.0
        for when, mode, _reason in self.mode_history:
            if current_mode is LLCMode.PRIVATE:
                total += when - current_start
            current_mode = mode
            current_start = when
        if current_mode is LLCMode.PRIVATE:
            total += end_time - current_start
        return total


class AdaptiveController(ModeController):
    """The paper's controller: profile shared, decide by Rules #1/#2,
    revert at epochs and kernel launches (Rule #3)."""

    def __init__(self, cfg: GPUConfig, engine: Engine, system, **kwargs):
        from repro.core.sampler import ProfilingState

        super().__init__(cfg, engine, system, **kwargs)
        self.acfg = cfg.adaptive
        self.profiler = ProfilingState(cfg)

    # ---------------------------------------------------------------- rules
    def _begin(self, now: float) -> None:
        self._begin_epoch(now)

    def _begin_epoch(self, now: float) -> None:
        if self.mode is LLCMode.PRIVATE:
            self._transition(now, LLCMode.SHARED, "rule3_epoch")
        self._begin_profile(now)
        self._schedule(self.acfg.epoch_cycles,
                       lambda: self._begin_epoch(self.engine.now))

    def on_kernel_launch(self, now: float) -> None:
        """Rule #3: a new kernel reverts to shared and re-profiles."""
        if not self._started:
            self.start(now)
            return
        if self.mode is LLCMode.PRIVATE:
            self._transition(now, LLCMode.SHARED, "rule3_kernel")
        self._begin_profile(now)

    def _begin_profile(self, now: float) -> None:
        warmup = self.acfg.profile_warmup_cycles
        if warmup > 0:
            self._schedule(warmup, self._start_profile_window)
        else:
            self._start_profile_window()

    def _start_profile_window(self) -> None:
        self.profiler.start()
        self._schedule(self.acfg.profile_cycles,
                       lambda: self._profile_end(self.engine.now))

    def _profile_end(self, now: float) -> None:
        report = self.profiler.stop()
        if self.force_shared:
            return
        if not report.usable:
            return  # too few samples: stay shared (safe default)
        decision = decide_mode(
            shared_miss_rate=report.shared_miss_rate,
            private_miss_rate=report.private_miss_rate,
            shared_lsp=report.shared_lsp,
            private_lsp=report.private_lsp,
            llc_slice_bw=float(self.cfg.noc.channel_bytes),
            mem_bw=self.cfg.dram_bytes_per_cycle_per_mc
            * self.cfg.num_memory_controllers,
            miss_rate_margin=self.acfg.miss_rate_margin,
        )
        self.decisions.append((now, decision))
        if decision.mode is LLCMode.PRIVATE and self.mode is LLCMode.SHARED:
            self._transition(now, LLCMode.PRIVATE, decision.rule)
