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

from repro.core.modes import LLCMode
from repro.policy.base import LLCPolicy, PolicyParam
from repro.policy.interval import IntervalModeController
from repro.policy.registry import register_policy

_ARMS = (LLCMode.SHARED, LLCMode.PRIVATE)


class _BanditController(IntervalModeController):
    def __init__(self, *args, epsilon: float, seed: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.epsilon = epsilon
        self.rng = random.Random((seed << 8) ^ self.prog.program_id)
        self._reward_sum = {arm: 0.0 for arm in _ARMS}
        self._reward_windows = {arm: 0 for arm in _ARMS}
        self._seen_instructions = 0.0

    # ------------------------------------------------------------- window
    def _baseline(self) -> None:
        super()._baseline()
        self._seen_instructions = sum(
            self.system.sms[s].retired_instructions
            for s in self.prog.sm_ids)

    def _tick(self) -> None:
        now = self.engine.now
        prev_acc = self._seen_accesses
        prev_hits = self._seen_hits
        prev_instr = self._seen_instructions
        arm = self.mode
        self._baseline()
        window = self._seen_accesses - prev_acc
        if window >= self.min_samples and not self.force_shared:
            # Credit the finished window to the arm that produced it.
            reward = (self._seen_instructions - prev_instr) \
                / self.interval_cycles
            self._reward_sum[arm] += reward
            self._reward_windows[arm] += 1
            miss_rate = 1.0 - (self._seen_hits - prev_hits) / window
            verdict = self._choose_arm()
            if verdict is not None:
                to_mode, rule = verdict
                self.decisions.append((now, self._decision(to_mode, rule,
                                                           miss_rate)))
                self._transition(now, to_mode, rule)
        self._events.append(self.engine.schedule_after(self.interval_cycles,
                                                       self._tick))

    # ------------------------------------------------------------- policy
    def _choose_arm(self) -> Optional[tuple[LLCMode, str]]:
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

    def evaluate(self, miss_rate: float):  # pragma: no cover - unused hook
        raise NotImplementedError("bandit overrides _tick directly")


@register_policy
class BanditPolicy(LLCPolicy):
    """Epsilon-greedy arm selection between the two static organizations,
    rewarded by each program's own windowed IPC."""

    NAME = "bandit"
    DESCRIPTION = ("epsilon-greedy over {shared, private}, rewarded by "
                   "per-program windowed IPC; seeded and deterministic")
    PARAMS = (
        PolicyParam("interval", int, 1_500,
                    "cycles per observation window / arm pull",
                    bounds=(1, None)),
        PolicyParam("epsilon", float, 0.1,
                    "exploration probability per window",
                    bounds=(0.0, 1.0)),
        PolicyParam("seed", int, 17,
                    "RNG seed (mixed with the program id)"),
        PolicyParam("min_samples", int, 128,
                    "minimum LLC accesses per window to act on",
                    bounds=(1, None)),
    )

    def setup(self) -> None:
        system = self.system
        system.enable_program_counters()
        p = self.params
        for prog in self.programs:
            prog.controller = _BanditController(
                system.cfg, system.engine, system, prog,
                interval_cycles=p["interval"],
                min_samples=p["min_samples"],
                on_transition=system.transition_hook(prog),
                force_shared=prog.workload.uses_atomics,
                epsilon=p["epsilon"], seed=p["seed"],
            )
