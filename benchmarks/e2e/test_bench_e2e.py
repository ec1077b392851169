"""Tests of the end-to-end benchmark: schema, layer coverage, seeds and
output checks.

Workloads run at a reduced size: the same code path with short traces and
one repeat of everything.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import harness
import layers
from clock import SAMPLE_S, ReferenceClock, reference_sample
from repro.experiments import experiment_config, figure_module
from repro.experiments.campaign import RunSpec
from repro.gpu.system import GPUSystem
from repro.workloads import benchmark, generate_workload

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = harness.Budget(seconds=0, setups=1, cycles=1, warm_repeats=1,
                      hit_samples=1)

# Trace lengths match the campaign's at these scales, so the seed-0
# in-process results are still checked against the stored ones.
REDUCED = {
    "solo-stream": harness.solo("solo-stream", "", {"VA": 3_000},
                                scale=0.02, batch_scale=0.021),
    "solo-reuse": harness.solo("solo-reuse", "", {"GEMM": 2_000},
                               scale=0.02, batch_scale=0.021),
    "consolidation-open": harness.consolidation(
        "consolidation-open", "", 4_000, scale=0.05, batch_scale=0.06),
    # The same `repro report` path on Figure 12's 15 runs instead of 51.
    "campaign": dataclasses.replace(
        harness.WORKLOADS["campaign"],
        command=lambda seed: ["report", "--figures", "12", "--scale", "0.02"],
        specs=lambda seed: figure_module("12").specs(scale=0.02),
        library=lambda seed: [RunSpec.single("AN", "adaptive", scale=0.02)],
        batch=lambda seed: [RunSpec.single("AN", "adaptive", scale=0.021)]),
}


@pytest.fixture(scope="module")
def outcome():
    cache = {}

    def get(workload: str, seed: int = 0, trace: bool = False):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = harness.run(REDUCED[workload], seed, TINY, trace)
        return cache[key]

    return get


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == harness.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert {m["name"]: m["unit"] for m in e2e} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in layer} == harness.PER_LAYER
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for m in e2e + layer:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


@pytest.mark.parametrize("workload", list(REDUCED))
def test_workload_reports_every_end_to_end_metric(outcome, workload):
    out = outcome(workload)
    assert out.ledger.failures == []
    assert out.ledger.attempted > 0
    assert {n: u for n, (_, u, _) in out.metrics.items()} \
        == harness.END_TO_END
    assert all(value > 0 for value, _, _ in out.metrics.values())


def test_traced_run_reports_every_per_layer_metric(outcome):
    out = outcome("solo-stream", seed=1, trace=True)
    assert out.ledger.failures == []
    assert {n: u for n, (_, u, _) in out.metrics.items()} \
        == harness.PER_LAYER
    spans = json.loads(out.trace_file.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {"GPUSystem.__init__", "GPUSystem.run", "ResultStore.store",
            "Campaign.prefetch", "ServiceClient.submit"} <= names


def test_seed_changes_traces_but_not_the_metric_set(outcome):
    """Seed 1 (traced above) simulates other traces than seed 0, and both
    runs still report exactly their declared metric sets."""
    base = outcome("solo-stream", seed=0)
    other = outcome("solo-stream", seed=1, trace=True)
    assert other.trace_digest != base.trace_digest
    assert set(base.metrics) == set(harness.END_TO_END)
    assert set(other.metrics) == set(harness.PER_LAYER)


def test_profiled_library_pass_folds_into_every_simulator_layer():
    """A library pass on both tiers folds with no unmapped frame, and the
    accelerated tier's closures carry cache and DRAM time (the batch tier
    computes NoC hops inside the SM closures)."""
    import cProfile
    import pstats

    session = harness.Session(REDUCED["solo-stream"], 0, TINY,
                              harness.WORK)
    session.pick_accel_tier()
    profile = cProfile.Profile()
    profile.enable()
    session.library_pass()
    profile.disable()
    stats = pstats.Stats(profile).stats
    self_s = layers.fold(stats)
    total = sum(self_s.values())
    assert session.ledger.failures == []
    assert session.accel_installed in harness.ACCEL_TIERS
    assert sum(v / total for v in self_s.values()) == pytest.approx(
        1.0, abs=0.01)
    for layer in ("sim", "gpu", "cache", "noc", "mem", "policy",
                  "workloads"):
        assert self_s[layer] > 0, layer
    root = layers.repro_root()
    closure_layers = {
        layers.layer_of(f, name, root) for (f, _, name), entry in
        stats.items()
        if f.startswith(root) and f[len(root):] in layers.TIER_MODULES
        and entry[2] > 0}
    assert {"cache", "mem"} <= closure_layers


def test_layer_table_rejects_unknown_modules_and_keeps_tier_closures():
    root = layers.repro_root()
    assert layers.layer_of(root + "gpu/fastpath.py", "read_s", root) \
        == "cache"
    assert layers.layer_of(root + "gpu/batchpath.py", "dram_write", root) \
        == "mem"
    assert layers.layer_of(root + "gpu/fastpath.py", "new_closure", root) \
        == "gpu"
    assert layers.layer_of("/elsewhere/json/encoder.py", "f", root) is None
    with pytest.raises(layers.UnmappedFrames):
        layers.layer_of(root + "telemetry/sink.py", "emit", root)
    with pytest.raises(layers.UnmappedFrames):
        layers.layer_of(root + "newmodule.py", "f", root)


def test_reference_work_reads_its_nominal_length_at_any_host_speed():
    clock = ReferenceClock()
    with clock.timed() as timed:
        for _ in range(40):
            reference_sample()
    assert timed.seconds == pytest.approx(40 * SAMPLE_S, rel=0.25)


def test_injected_digest_mismatch_is_counted():
    wl = generate_workload(benchmark("VA"), num_ctas=32,
                           total_accesses=2_000, max_kernels=1)
    system = GPUSystem(experiment_config(), wl, policy="shared")
    result = system.run()
    good = harness.digest(result.to_dict())
    ledger = harness.Ledger()
    assert harness.check_library_run(ledger, "VA", system, result,
                                     wl.total_instructions, good, good)
    assert not harness.check_library_run(ledger, "VA", system, result,
                                         wl.total_instructions, good,
                                         "0" * 64)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "digest" in ledger.failures[0]
