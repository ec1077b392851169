"""``miss-rate-threshold``: the simplest plausible dynamic policy.

A low observed miss rate means the working set fits — replicating it
across private slices is nearly free and unlocks response-port parallelism
plus MC-router gating; a high miss rate while private means replication is
thrashing the (effectively smaller) per-cluster capacity, so fall back to
shared.  No ATD, no bandwidth model: this is the strawman the paper's
profiled controller should beat, and the policy shootout quantifies by how
much.  It is ``hysteresis`` at ``dwell=1``, under its own parameter and
rule names.
"""

from __future__ import annotations

from repro.analysis.registry import Param
from repro.policy.base import register_policy
from repro.policy.hysteresis import _HysteresisController
from repro.policy.interval import INTERVAL, MIN_SAMPLES, IntervalPolicy


@register_policy
class MissRateThresholdPolicy(IntervalPolicy):
    """Go private when the windowed LLC miss rate drops below a threshold;
    revert to shared when it climbs back above a second one."""

    NAME = "miss-rate-threshold"
    DESCRIPTION = ("windowed global miss rate vs two thresholds; no ATD, "
                   "no bandwidth model")
    PARAMS = (
        INTERVAL,
        Param("go_private_below", float, 0.35,
              "shared-mode miss rate at or below which to go private"),
        Param("revert_above", float, 0.60,
              "private-mode miss rate at or above which to revert"),
        MIN_SAMPLES,
    )
    CONTROLLER = _HysteresisController

    def controller_params(self) -> dict:
        p = self.params
        return {"low": p["go_private_below"], "high": p["revert_above"],
                "dwell": 1, "rule": "threshold"}
