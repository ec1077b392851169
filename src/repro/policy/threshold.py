"""``miss-rate-threshold``: the simplest plausible dynamic policy.

A low observed miss rate means the working set fits — replicating it
across private slices is nearly free and unlocks response-port parallelism
plus MC-router gating; a high miss rate while private means replication is
thrashing the (effectively smaller) per-cluster capacity, so fall back to
shared.  No ATD, no bandwidth model: this is the strawman the paper's
profiled controller should beat, and the policy shootout quantifies by how
much.
"""

from __future__ import annotations

from typing import Optional

from repro.core.modes import LLCMode
from repro.policy.base import LLCPolicy, PolicyParam
from repro.policy.interval import IntervalModeController
from repro.policy.registry import register_policy


class _ThresholdController(IntervalModeController):
    def __init__(self, *args, go_private_below: float, revert_above: float,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.go_private_below = go_private_below
        self.revert_above = revert_above

    def evaluate(self, miss_rate: float
                 ) -> Optional[tuple[LLCMode, str]]:
        if self.mode is LLCMode.SHARED \
                and miss_rate <= self.go_private_below:
            return LLCMode.PRIVATE, "threshold_low"
        if self.mode is LLCMode.PRIVATE \
                and miss_rate >= self.revert_above:
            return LLCMode.SHARED, "threshold_high"
        return None


@register_policy
class MissRateThresholdPolicy(LLCPolicy):
    """Go private when the windowed LLC miss rate drops below a threshold;
    revert to shared when it climbs back above a second one."""

    NAME = "miss-rate-threshold"
    DESCRIPTION = ("windowed global miss rate vs two thresholds; no ATD, "
                   "no bandwidth model")
    PARAMS = (
        PolicyParam("interval", int, 1_500,
                    "cycles between miss-rate evaluations",
                    bounds=(1, None)),
        PolicyParam("go_private_below", float, 0.35,
                    "shared-mode miss rate at or below which to go private"),
        PolicyParam("revert_above", float, 0.60,
                    "private-mode miss rate at or above which to revert"),
        PolicyParam("min_samples", int, 128,
                    "minimum LLC accesses per window to act on",
                    bounds=(1, None)),
    )

    def setup(self) -> None:
        system = self.system
        system.enable_program_counters()
        p = self.params
        for prog in self.programs:
            prog.controller = _ThresholdController(
                system.cfg, system.engine, system, prog,
                interval_cycles=p["interval"],
                min_samples=p["min_samples"],
                on_transition=system.transition_hook(prog),
                force_shared=prog.workload.uses_atomics,
                go_private_below=p["go_private_below"],
                revert_above=p["revert_above"],
            )
