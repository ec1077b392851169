"""``bandit``: epsilon-greedy over {shared, private} per program.

The registry's first *learned* policy: each program treats the two LLC
organizations as bandit arms and its own windowed throughput as the
reward.  Every ``interval`` cycles the controller credits the finished
window's instructions-per-cycle to the arm that was live, then either
*explores* (with probability ``epsilon``, pick an arm uniformly at random)
or *exploits* (pick the arm with the best observed mean reward; untried
arms first, so both organizations get measured early).  Switching arms
pays the full reconfiguration cost, exactly like every other policy.

Two properties matter for the shootout comparison:

* the reward is *end-to-end* (retired instructions), not a miss-rate
  proxy, so the bandit can learn preferences the naive threshold policies
  misread — at the price of needing enough windows to average out noise;
* observation is per-program through the Scenario API's counter slices,
  so in a mix each program's bandit learns from its own behavior only.

Exploration draws come from a ``random.Random`` seeded by ``seed`` and
the program id: runs are deterministic and therefore content-cacheable.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.analysis.registry import Param
from repro.core.modes import LLCMode
from repro.policy.base import register_policy
from repro.policy.interval import (INTERVAL, MIN_SAMPLES,
                                   IntervalModeController, IntervalPolicy)

_ARMS = (LLCMode.SHARED, LLCMode.PRIVATE)


class _BanditController(IntervalModeController):
    def __init__(self, *args, epsilon: float, seed: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.epsilon = epsilon
        self.rng = random.Random((seed << 8) ^ self.prog.program_id)
        self._reward_sum = {arm: 0.0 for arm in _ARMS}
        self._reward_windows = {arm: 0 for arm in _ARMS}
        self._seen_instructions = 0.0
        self._window_instructions = 0.0

    def _baseline(self) -> None:
        super()._baseline()
        retired = sum(self.system.sms[s].retired_instructions
                      for s in self.prog.sm_ids)
        self._window_instructions = retired - self._seen_instructions
        self._seen_instructions = retired

    def evaluate(self, miss_rate: float
                 ) -> Optional[tuple[LLCMode, str]]:
        # Credit the finished window to the arm that produced it.
        self._reward_sum[self.mode] += \
            self._window_instructions / self.interval_cycles
        self._reward_windows[self.mode] += 1
        if self.rng.random() < self.epsilon:
            target = _ARMS[self.rng.randrange(len(_ARMS))]
            rule = "bandit_explore"
        else:
            untried = [arm for arm in _ARMS if not self._reward_windows[arm]]
            if untried:
                target = untried[0]
                rule = "bandit_probe"
            else:
                target = max(_ARMS, key=lambda arm: self._reward_sum[arm]
                             / self._reward_windows[arm])
                rule = "bandit_exploit"
        if target is self.mode:
            return None
        return target, rule


@register_policy
class BanditPolicy(IntervalPolicy):
    """Epsilon-greedy arm selection between the two static organizations,
    rewarded by each program's own windowed IPC."""

    NAME = "bandit"
    DESCRIPTION = ("epsilon-greedy over {shared, private}, rewarded by "
                   "per-program windowed IPC; seeded and deterministic")
    PARAMS = (
        INTERVAL,
        Param("epsilon", float, 0.1,
              "exploration probability per window",
              bounds=(0.0, 1.0)),
        Param("seed", int, 17,
              "RNG seed (mixed with the program id)"),
        MIN_SAMPLES,
    )
    CONTROLLER = _BanditController

    def controller_params(self) -> dict:
        return {"epsilon": self.params["epsilon"], "seed": self.params["seed"]}
