"""Pinned schedules: what the event queue did, not only what it produced.

Each representative spec runs on both tiers, and a digest covers the
installed tier, ``engine.events_processed``, the final ``engine.now`` and
``RunResult.to_dict()``.  A change to how the engine queues, orders or
cancels entries can leave the result bytes alone and still move the
other two: a controller timer that outlives ``shutdown`` fires (more
events, a later clock), and a cancelled entry that is dispatched anyway
moves the clock.  Any such change fails here.

Recapture the digests only for a deliberate model change, together with
the goldens.
"""

import dataclasses
import hashlib
import json
import signal

import pytest

from repro.experiments.campaign import RunSpec, spec_from_mix, spec_system
from repro.experiments.fig11_adaptive_performance import cells as fig11_cells
from repro.experiments.runner import experiment_config

SMOKE = 0.02  # the CLI's smoke preset
RUN_LIMIT_S = 30  # each run takes well under a second

#: The e2e benchmark's consolidation mix, under its Poisson admissions.
MIX = "VA:adaptive+GEMM:hysteresis+SN:private+LUD:shared"
ARRIVALS = "poisson:gap=1500"

#: Interval-policy parameters under which the pair transitions at smoke.
INTERVAL = {"interval": 800, "dwell": 1, "min_samples": 64}


def pinned_specs() -> dict:
    """Name -> spec: a Figure 11 subset (one benchmark per category, all
    three modes), a heterogeneous Figure 15 pair, a homogeneous
    ``hysteresis`` pair, the consolidation mix and one Hynix run."""
    cfg = experiment_config()
    out = {f"fig11/{abbr}/{mode}": spec
           for (_category, abbr, mode), spec in fig11_cells(SMOKE).items()
           if abbr in ("GEMM", "SN", "VA")}
    out["fig15/LUD+RN/static-private+paper-adaptive"] = RunSpec.pair(
        "LUD", "RN", "static-private", cfg, scale=SMOKE,
        mode_b="paper-adaptive")
    out["pair/GEMM+AN/hysteresis"] = RunSpec.pair(
        "GEMM", "AN", "hysteresis", cfg, scale=SMOKE,
        policy_params=INTERVAL, mode_b="hysteresis",
        policy_params_b=INTERVAL)
    out["consolidation"] = spec_from_mix(MIX, scale=SMOKE,
                                         arrivals=ARRIVALS, seed=1)
    out["hynix/VA/adaptive"] = RunSpec.single(
        "VA", "adaptive", cfg.replace(address_mapping="hynix"), scale=SMOKE)
    return out


def _expire(signum, frame):
    raise TimeoutError(f"still running after {RUN_LIMIT_S} s: a recurring "
                       "controller timer outlived shutdown")


def schedule_digest(spec: RunSpec, tier: str) -> str:
    """Run ``spec`` on ``tier`` and digest what its engine did."""
    system = spec_system(
        dataclasses.replace(spec, cfg=spec.cfg.replace(tier=tier)))
    # A recurring timer that survives shutdown never lets the queue drain;
    # the alarm turns that hang into a failure.
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = system.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    payload = json.dumps([system.tier, system.engine.events_processed,
                          repr(system.engine.now), result.to_dict()],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


PINS = {
    "consolidation@batch":
        "796657dccddd846ed6877ec50b9eb77b0e964de0ac71d06c9cf871624bab0020",
    "consolidation@event":
        "ec6e7680803a3f266bf039c27c0eebdf6eb14050894d2e3fa1935af83d6af701",
    "fig11/GEMM/adaptive@batch":
        "006bb4c3b904d32708b0a90509999b37a9627340dc60fe94015e48c1ea650e3b",
    "fig11/GEMM/adaptive@event":
        "393744e3e8a1a4db3b399dfb4b3dfadbe5e45ad160441181ef4a938b1ea96e47",
    "fig11/GEMM/private@batch":
        "b7680898889b73c9e790d29d6999c1e3358b61fa2dd5d5597f63ead495c6bb0f",
    "fig11/GEMM/private@event":
        "3c406e2bd1ffd963275a99387edbe82417be680880497ef2e0c2ac4a0408986c",
    "fig11/GEMM/shared@batch":
        "1495717c0568aa0c541c70baf640cd53913b978177f095854f89b9288463690b",
    "fig11/GEMM/shared@event":
        "828bc5a96df01a97ae7e191e0c3375ec7debf0122f2138d5e8db57feb63c3276",
    "fig11/SN/adaptive@batch":
        "6504c25ad57b9122947a59030279bb316fe255286c559d6964be7e8eef88eddb",
    "fig11/SN/adaptive@event":
        "0c1a65dd715aa0d50e191cbafc16bfd70709faeb856eadfe1345f3f9f12d7120",
    "fig11/SN/private@batch":
        "7a907124545b9a5b3effe9aaa390f83979006d84b46eda2976e67eb27778fed6",
    "fig11/SN/private@event":
        "027f35d2489b74f6a67e3364266249f392cbc9c8057a4eaed39751ee82575aa0",
    "fig11/SN/shared@batch":
        "0a85e2210c503f721c3112f3405492cd8427eb49e99beb13959082b62073a29d",
    "fig11/SN/shared@event":
        "b28493e2afe7dc40f1bd64d81a8dccc3656102b21677f72944c5328590dc9a47",
    "fig11/VA/adaptive@batch":
        "ec3287a1d57f274051a19430b97a6a7bc9aa95b7d8da6a9d2ae929397a7918f3",
    "fig11/VA/adaptive@event":
        "56f7fd1290cc2713c296d97a99a76ba653d1dd913fe12617d96bc08da19d02af",
    "fig11/VA/private@batch":
        "d4eda9e90c0101d71eaf692e5bb43ef0f592d6b191d8927a8ded44786f9f9634",
    "fig11/VA/private@event":
        "07f4131f5fa1c15efafac08d1f99057e886249a16c004c2e3861f3cace3cc522",
    "fig11/VA/shared@batch":
        "4b1e81635355bb5f781d1a7d7179dc6198dc768576e59c9c5f309ccaf374cf04",
    "fig11/VA/shared@event":
        "e4b71479cb3efc44f87d738478bfefde5d133707913f55790c81439bb03403da",
    "fig15/LUD+RN/static-private+paper-adaptive@batch":
        "a93c59e0526415b59003539ccac26f098bd66bd01424d70907a4c622225e0b3f",
    "fig15/LUD+RN/static-private+paper-adaptive@event":
        "73d7a2ced6f57c46f59ad246ad75c1c47c7e0e4e2ff8d0ce79874496651d86dc",
    "hynix/VA/adaptive@batch":
        "fbcf7fb83b89a90648dbaef9fe00a32c289ecb46faf157ce662a12160140a90c",
    "hynix/VA/adaptive@event":
        "fbcf7fb83b89a90648dbaef9fe00a32c289ecb46faf157ce662a12160140a90c",
    "pair/GEMM+AN/hysteresis@batch":
        "a0bdcda1c9ff41076ad89bf7e0c0d0b5dbb9bbd07541f4ba7fa4a6dba407aefa",
    "pair/GEMM+AN/hysteresis@event":
        "956062af7982b830c034e8d910b5225128935dacfd252ff7cfdd04d4a5832fe5",
}


@pytest.mark.parametrize("tier", ["event", "batch"])
@pytest.mark.parametrize("name", sorted(pinned_specs()))
def test_schedule_digest_is_pinned(name, tier):
    assert schedule_digest(pinned_specs()[name], tier) \
        == PINS[f"{name}@{tier}"]
