"""``hysteresis``: the threshold policy with a configurable dwell.

Reconfiguration is not free (drain + writeback/invalidate + router
power-gating, Section 4.1), so a policy that flips on every noisy window
pays for it.  This variant requires the switch condition to hold for
``dwell`` *consecutive* evaluation windows before committing, damping
oscillation at the cost of reaction latency — the classic
stability/agility trade the shootout lets you sweep (``--policy
hysteresis:dwell=4``).  At ``dwell=1`` it is ``miss-rate-threshold``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.registry import Param
from repro.core.modes import LLCMode
from repro.policy.base import register_policy
from repro.policy.interval import (INTERVAL, MIN_SAMPLES,
                                   IntervalModeController, IntervalPolicy)


class _HysteresisController(IntervalModeController):
    def __init__(self, *args, low: float, high: float, dwell: int,
                 rule: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.low = low
        self.high = high
        self.dwell = dwell
        self.rule = rule
        self._pending: Optional[LLCMode] = None
        self._streak = 0

    def evaluate(self, miss_rate: float
                 ) -> Optional[tuple[LLCMode, str]]:
        if self.mode is LLCMode.SHARED and miss_rate <= self.low:
            target, rule = LLCMode.PRIVATE, f"{self.rule}_low"
        elif self.mode is LLCMode.PRIVATE and miss_rate >= self.high:
            target, rule = LLCMode.SHARED, f"{self.rule}_high"
        else:
            self._pending = None
            self._streak = 0
            return None
        if self._pending is not target:
            self._pending = target
            self._streak = 0
        self._streak += 1
        if self._streak < self.dwell:
            return None
        self._pending = None
        self._streak = 0
        return target, rule


@register_policy
class HysteresisPolicy(IntervalPolicy):
    """Threshold policy that waits ``dwell`` consecutive windows before
    switching, trading reaction speed for transition-cost stability."""

    NAME = "hysteresis"
    DESCRIPTION = ("miss-rate thresholds with a consecutive-window dwell "
                   "before any transition")
    PARAMS = (
        INTERVAL,
        Param("low", float, 0.35,
              "shared-mode miss rate at or below which to arm private"),
        Param("high", float, 0.60,
              "private-mode miss rate at or above which to arm shared"),
        Param("dwell", int, 2,
              "consecutive qualifying windows required to switch",
              bounds=(1, None)),
        MIN_SAMPLES,
    )
    CONTROLLER = _HysteresisController

    def controller_params(self) -> dict:
        p = self.params
        return {"low": p["low"], "high": p["high"], "dwell": p["dwell"],
                "rule": "hysteresis"}
