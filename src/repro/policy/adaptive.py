"""The paper's adaptive controller, wrapped as a registered policy.

``paper-adaptive`` is a thin adapter around the existing epoch/profile/
decide machinery (:mod:`repro.core.sampler`, :mod:`repro.core.
bandwidth_model`, :mod:`repro.core.reconfig`, :mod:`repro.core.controller`)
— it installs one :class:`~repro.core.controller.AdaptiveController` per
program, exactly as the hardcoded ``"adaptive"`` branch used to, so runs
are byte-identical to the pre-policy-layer simulator
(``tests/test_golden_results.py`` pins this).

All tunables stay on :class:`~repro.config.AdaptiveConfig` (they are part
of the ``GPUConfig`` content key already); the policy itself is
parameterless by design.
"""

from __future__ import annotations

from repro.core.controller import AdaptiveController
from repro.policy.base import LLCPolicy, register_policy


@register_policy
class PaperAdaptivePolicy(LLCPolicy):
    """Rules #1–#3: profile shared, estimate private via the ATD, switch
    when the supplied-bandwidth model favors private; revert at epochs and
    kernel launches."""

    NAME = "paper-adaptive"
    ALIASES = ("adaptive",)
    DESCRIPTION = ("the paper's contribution: ATD profiling + supplied-"
                   "bandwidth Rules #1-#3 (tuned via cfg.adaptive)")

    def setup(self) -> None:
        system = self.system
        for prog in self.programs:
            prog.controller = AdaptiveController(
                system.cfg, system.engine, system,
                on_transition=system.transition_hook(prog),
                force_shared=prog.workload.uses_atomics,
            )
