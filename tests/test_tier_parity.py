"""Tier-parity suite: the batch tier must change nothing but speed.

The batch execution tier (:mod:`repro.gpu.batchpath`) recomputes the
event tier's deterministic round trips as closed-form arithmetic over
launch-decoded route columns and deferred counters — under a strict
contract: byte-identical ``RunResult.to_dict()`` for the same spec, down
to float bit patterns, because campaign cache keys elide
the tier (``GPUConfig.to_dict``) and a cached event-tier result must be
interchangeable with a fresh accelerated run.

Three layers of pinning, each applied to every accelerated tier:

* every golden capture re-executed under the accelerated tier must equal
  the committed event-tier golden byte-for-byte (this includes the
  two-program pair and the adaptive policy's reconfiguration epochs);
* a *heterogeneous* mix whose interval policies actually transition —
  mode flips force a tier flush mid-run, so this pins the
  stateful-boundary handling, not just the steady state;
* an installation guard, so the suite can never pass vacuously because
  the accelerated tier silently declined to install.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.campaign import RunSpec, execute_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_runresults.json")

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

TINY = 0.02

#: The accelerated tiers under parity test.
ACCEL_TIERS = ("batch",)


def _tier_spec(spec: RunSpec, tier: str) -> RunSpec:
    if tier == "event":
        return spec
    return dataclasses.replace(spec, cfg=spec.cfg.replace(tier=tier))


@pytest.mark.parametrize("tier", ACCEL_TIERS)
def test_accel_tier_installs_on_experiment_config(tier):
    """Guard against vacuous parity: the baseline experiment topology must
    actually take the accelerated path (if a refactor makes the installer
    decline, every test below would silently compare event vs event)."""
    from repro.experiments.runner import experiment_config
    from repro.gpu.system import GPUSystem
    from repro.workloads.catalog import build

    cfg = experiment_config().replace(tier=tier)
    workload = build("VA", total_accesses=2_000, num_ctas=32, max_kernels=1)
    system = GPUSystem(cfg, workload, policy="shared")
    assert system.tier == tier
    system.run()


def test_event_tier_is_the_default_and_keys_predate_the_tier():
    """Pre-tier serialized specs must keep their historical content keys:
    the default tier is elided from ``GPUConfig.to_dict``, and round-trips
    preserve an explicit accelerated-tier request."""
    key, entry = next(iter(sorted(GOLDEN.items())))
    spec = RunSpec.from_dict(entry["spec"])
    assert spec.cfg.tier == "event"
    assert "tier" not in spec.cfg.to_dict()
    assert spec.cache_key() == key
    for tier in ACCEL_TIERS:
        accel = _tier_spec(spec, tier)
        assert RunSpec.from_dict(accel.to_dict()).cfg.tier == tier


@pytest.mark.parametrize("tier", ACCEL_TIERS)
@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=[GOLDEN[k]["label"] for k in sorted(GOLDEN)])
def test_accel_tier_reproduces_golden_captures(key, tier):
    entry = GOLDEN[key]
    spec = _tier_spec(RunSpec.from_dict(entry["spec"]), tier)
    result = execute_spec(spec).to_dict()
    assert result == entry["result"], (
        f"{entry['label']}: {tier} tier diverged from the event-tier "
        f"golden capture")


def _hetero_spec(tier: str) -> RunSpec:
    """Two programs, two different interval policies, parameters chosen so
    both actually transition at smoke scale (asserted below)."""
    spec = RunSpec.pair("RN", "SN", "miss-rate-threshold",
                        scale=TINY,
                        policy_params={"interval": 800, "min_samples": 64},
                        mode_b="hysteresis",
                        policy_params_b={"interval": 800, "dwell": 1,
                                         "min_samples": 64})
    return _tier_spec(spec, tier)


@pytest.mark.parametrize("tier", ACCEL_TIERS)
def test_accel_tier_matches_event_on_transitioning_hetero_mix(tier):
    """Mode transitions flush the tier mid-run (per-program private/shared
    routing flips under the accelerated tier's feet); a heterogeneous mix
    where *both* interval controllers fire pins that boundary."""
    event = execute_spec(_hetero_spec("event"))
    accel = execute_spec(_hetero_spec(tier))
    assert event.transitions >= 2, (
        "parity run went steady-state: pick parameters that transition, "
        "or the flush path is untested")
    assert all(p.transitions >= 1 for p in event.programs)
    assert accel.to_dict() == event.to_dict()


_NO_NUMPY_PROBE = """
import hashlib, json, sys
from repro.experiments.runner import experiment_config
from repro.gpu.system import GPUSystem
from repro.workloads.catalog import build

workload = build("VA", total_accesses=2_000, num_ctas=32, max_kernels=1)
system = GPUSystem(experiment_config().replace(tier="batch"), workload,
                   policy="adaptive")
result = json.dumps(system.run().to_dict(), sort_keys=True)
print(json.dumps({"tier": system.tier,
                  "numpy": "numpy" in sys.modules,
                  "digest": hashlib.sha256(result.encode()).hexdigest()}))
"""


def test_batch_tier_runs_without_importing_numpy():
    """The batch tier is pure Python: a fresh interpreter that builds and
    runs a batch system never imports numpy, and still reproduces the
    event tier's bytes."""
    import hashlib
    import subprocess
    import sys

    from repro.experiments.runner import experiment_config
    from repro.gpu.system import GPUSystem
    from repro.workloads.catalog import build

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE],
                          capture_output=True, text=True, env=env,
                          check=True)
    probe = json.loads(proc.stdout)
    assert probe["tier"] == "batch"
    assert probe["numpy"] is False

    workload = build("VA", total_accesses=2_000, num_ctas=32, max_kernels=1)
    event = GPUSystem(experiment_config(), workload, policy="adaptive")
    digest = hashlib.sha256(json.dumps(event.run().to_dict(),
                                       sort_keys=True).encode()).hexdigest()
    assert probe["digest"] == digest
