"""Config-shape differential fuzz: the batch tier installs and matches the
event tier byte for byte, or declines.

The golden captures and the tier-parity suite pin the batch tier on the
experiment configuration; this fuzz pins it on the shapes around it.
Each iteration samples a :class:`~repro.config.GPUConfig` that passes
``validate()`` — geometry, cache, NoC, DRAM, address mapping and CTA
scheduler axes — plus the run options (every registered LLC policy,
locality collection, the energy report), runs a small two-kernel trace
on both tiers, and accepts exactly two outcomes: the batch install
declined (``system.tier == "event"``), or ``RunResult.to_dict()`` and
every counter outside it (``tier_state``) equal the event tier's.  Every
run, on either tier, must also keep its conservation identities: DRAM
writes are write-through stores plus write-backs with no dirty LLC line
left, every issued read and write reaches the LLC once, every LLC read
miss is one DRAM read, the MSHRs drain and the retired instructions are
the trace's, and once dropped it must be freed with no reference cycle
left for the collector.  Vacuity guards assert every axis value was drawn and
that the batch tier really installed on a good share of the samples.

``REPRO_TIER_FUZZ_ITERS`` raises the iteration count (CI runs 200).
"""

import dataclasses
import itertools
import json
import os
import random

from repro.config import DRAMTiming
from repro.experiments.runner import experiment_config, scaled_policy_params
from repro.gpu.system import GPUSystem
from repro.policy import available_policies
from repro.power.gpu_power import GPUPowerModel
from repro.workloads.catalog import build

ITERATIONS = int(os.environ.get("REPRO_TIER_FUZZ_ITERS", "40"))

ACCESSES = 3_000
KERNELS = 2
#: Trace scale the interval policies' windows are shrunk to.
SCALE = 0.02
BENCHMARKS = ("VA", "GEMM", "SN", "AN", "LUD", "BS")

#: (num_sms, num_clusters, num_memory_controllers, llc_slices_per_mc).
GEOMETRIES = ((80, 8, 8, 8), (40, 4, 4, 4), (16, 4, 2, 4))
GEOMETRY_FIELDS = ("num_sms", "num_clusters", "num_memory_controllers",
                   "llc_slices_per_mc")

#: GPUConfig field -> candidate values.
CONFIG_AXES = {
    "l1_assoc": (4, 6, 8),
    "l1_size_kb": (16, 32, 48),
    "llc_assoc": (8, 16),
    "llc_slice_kb": (32, 64, 96),
    "line_bytes": (64, 128),
    "max_outstanding_misses": (8, 24, 48),
    "llc_latency_cycles": (60, 120, 200),
    "dram_timing": (DRAMTiming(),
                    DRAMTiming(tCL=16, tRP=16, tRC=48, tRAS=32, tRCD=16)),
    "dram_bandwidth_gbps": (450.0, 900.0, 1800.0),
    "address_mapping": ("pae", "hynix"),
    "cta_scheduler": ("two_level_rr", "bcs", "dcs"),
}
#: NoCConfig field -> candidate values.
NOC_AXES = {
    "topology": ("hxbar", "full", "cxbar"),
    "channel_bytes": (16, 32, 64),
    "router_pipeline_stages": (2, 4),
}
#: The batch tier declines off the first value of these axes, so they are
#: weighted toward it and about half of the samples install batch; the
#: rest are drawn uniformly.
WEIGHTS = {"topology": (4, 1, 1), "address_mapping": (4, 1)}


def _draw(rng, name, values):
    return rng.choices(values, WEIGHTS.get(name))[0]


def _sample(rng, policy):
    """One validated config plus its run options; ``drawn`` records the
    value taken on every axis."""
    drawn = {"geometry": rng.choice(GEOMETRIES)}
    fields = dict(zip(GEOMETRY_FIELDS, drawn["geometry"]))
    for name, values in CONFIG_AXES.items():
        fields[name] = drawn[name] = _draw(rng, name, values)
    noc = {name: _draw(rng, name, values) for name, values in NOC_AXES.items()}
    drawn.update(noc)
    base = experiment_config()
    cfg = base.replace(noc=dataclasses.replace(base.noc, **noc), **fields)
    cfg.validate()
    options = dict(policy=policy, benchmark=rng.choice(BENCHMARKS),
                   collect_locality=rng.random() < 0.5,
                   with_energy=rng.random() < 0.5)
    drawn.update(options)
    return cfg, options, drawn


def _run(cfg, tier, options, conserved):
    """Build and run one system and check its conservation identities;
    returns the system and its canonical result bytes."""
    workload = build(options["benchmark"], total_accesses=ACCESSES,
                     num_ctas=2 * cfg.num_sms, max_kernels=KERNELS)
    system = GPUSystem(cfg.replace(tier=tier), workload,
                       policy=options["policy"],
                       policy_params=scaled_policy_params(options["policy"],
                                                          SCALE),
                       collect_locality=options["collect_locality"])
    result = system.run()
    for check in conserved:
        check(system)
    if options["with_energy"]:
        result.energy = GPUPowerModel().report(system, result)
    return system, json.dumps(result.to_dict(), sort_keys=True)


def _all_values():
    """Axis name -> every value it can take."""
    return {"geometry": set(GEOMETRIES),
            **{name: set(values) for name, values in CONFIG_AXES.items()},
            **{name: set(values) for name, values in NOC_AXES.items()},
            "policy": set(available_policies()),
            "benchmark": set(BENCHMARKS),
            "collect_locality": {False, True},
            "with_energy": {False, True}}


def test_sampled_config_shapes_match_the_event_tier_or_decline(
        dram_writes_conserved, reads_conserved, tier_state, cycle_free):
    conserved = (dram_writes_conserved, reads_conserved, cycle_free)
    rng = random.Random(20261017)
    policies = sorted(available_policies())
    rng.shuffle(policies)
    policy_cycle = itertools.cycle(policies)
    seen = {name: set() for name in _all_values()}
    installed = 0
    for _ in range(ITERATIONS):
        cfg, options, drawn = _sample(rng, next(policy_cycle))
        for name, value in drawn.items():
            seen[name].add(value)
        batch_system, batch = _run(cfg, "batch", options, conserved)
        if batch_system.tier == "event":
            continue  # declined: the event tier ran, untouched
        assert batch_system.tier == "batch"
        installed += 1
        event_system, event = _run(cfg, "event", options, conserved)
        assert batch == event, drawn
        tier_state(event_system, batch_system)
    assert seen == _all_values(), "an axis value was never drawn"
    assert installed * 3 >= ITERATIONS, (
        f"batch installed on only {installed}/{ITERATIONS} samples")
