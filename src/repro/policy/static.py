"""The two static LLC organizations as registered policies.

These are pure configuration — no controller objects, no engine events —
so a static run's hot path is identical to the pre-policy-layer simulator.
The legacy strings ``"shared"`` and ``"private"`` resolve here via aliases.
"""

from __future__ import annotations

from repro.core.modes import LLCMode
from repro.policy.base import LLCPolicy, PolicyStats, register_policy


@register_policy
class StaticSharedPolicy(LLCPolicy):
    """Conventional shared memory-side LLC (the paper's baseline)."""

    NAME = "static-shared"
    ALIASES = ("shared",)
    DESCRIPTION = "address-indexed shared LLC, the paper's baseline"

    # Programs default to LLCMode.SHARED; nothing to configure.


@register_policy
class StaticPrivatePolicy(LLCPolicy):
    """Statically private per-cluster slices from cycle 0.

    Slices go write-through (GPU software coherence, Section 4.1) and the
    H-Xbar MC-routers are bypassed/gated immediately.
    """

    NAME = "static-private"
    ALIASES = ("private",)
    DESCRIPTION = "cluster-indexed private slices, write-through, gated NoC"

    def setup(self) -> None:
        system = self.system
        for prog in self.programs:
            prog.static_mode = LLCMode.PRIVATE
        if len(self.programs) == len(system.programs):
            # All programs private: the slice-level default can flip too
            # (per-access routing passes write_through explicitly either
            # way; a mixed scenario leaves the default write-back).
            for sl in system.llc_slices:
                sl.set_write_policy(write_through=True)
        system.update_bypass(0.0)

    def collect_stats(self, cycles: float) -> PolicyStats:
        # No controllers, so nothing to fold: the governed programs spend
        # the whole run private (the system divides by the total program
        # count when it reports time_in_private).
        return PolicyStats(time_in_private=cycles * len(self.programs))
