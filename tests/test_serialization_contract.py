"""Runtime companion to the static ``serialization`` rule.

The checker proves field *coverage* syntactically; these tests prove the
semantics: for each of the cache-relevant dataclasses
(:class:`~repro.config.GPUConfig`,
:class:`~repro.experiments.campaign.RunSpec`,
:class:`~repro.gpu.system.RunResult`), a sentinel value planted in every
field survives ``from_dict(to_dict(x)) == x`` through a real JSON round
trip, and — for the two keyed classes — any single-field change produces
a distinct ``cache_key()``.  A field someone adds but forgets to
serialize fails the exhaustiveness guard below before it can alias cache
entries in production.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.config import GPUConfig, _SerializableConfig
from repro.core.bandwidth_model import Decision
from repro.core.modes import LLCMode
from repro.experiments.campaign import RunSpec
from repro.gpu.system import ProgramStats, RunResult
from repro.noc.power import NoCEnergyBreakdown
from repro.power.gpu_power import SystemEnergyReport


def json_round_trip(cls, obj):
    """``from_dict`` applied to ``to_dict`` after a real JSON encode —
    the exact path campaign cache entries take to disk and back."""
    return cls.from_dict(json.loads(json.dumps(obj.to_dict())))


# -------------------------------------------------------------- GPUConfig
def gpu_config_variants() -> dict[str, GPUConfig]:
    """One variant per GPUConfig field, each differing from baseline in
    exactly that field."""
    base = GPUConfig.baseline()

    def bump_first_numeric(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                return dataclasses.replace(obj, **{f.name: value + 1})
        raise AssertionError(f"no numeric field on {type(obj).__name__}")

    special = {
        "address_mapping": "hynix",
        "cta_scheduler": "bcs",
        "tier": "event",
        "dram_timing": bump_first_numeric(base.dram_timing),
        "noc": bump_first_numeric(base.noc),
        "adaptive": bump_first_numeric(base.adaptive),
    }
    variants: dict[str, GPUConfig] = {}
    for f in dataclasses.fields(GPUConfig):
        if f.name in special:
            value = special[f.name]
        else:
            current = getattr(base, f.name)
            if isinstance(current, bool):
                value = not current
            elif isinstance(current, int):
                value = current + 1
            elif isinstance(current, float):
                value = current + 0.5
            else:  # pragma: no cover - new field type needs a sentinel
                raise AssertionError(
                    f"add a sentinel for GPUConfig.{f.name}")
        variants[f.name] = base.replace(**{f.name: value})
    return variants


#: GPUConfig fields deliberately left out of ``to_dict`` (and so of the
#: content key), each marked ``# repro: key-exempt(...)`` at its elision.
KEY_EXEMPT = {"tier"}


def test_gpu_config_every_field_round_trips():
    for name, cfg in gpu_config_variants().items():
        if name in KEY_EXEMPT:
            continue
        restored = json_round_trip(GPUConfig, cfg)
        assert restored == cfg, f"field {name!r} lost in round trip"


def test_gpu_config_every_field_feeds_cache_key():
    base = GPUConfig.baseline()
    variants = gpu_config_variants()
    keys = {"<baseline>": base.cache_key()}
    for name, cfg in variants.items():
        if name not in KEY_EXEMPT:
            keys[name] = cfg.cache_key()
    seen: dict[str, str] = {}
    for name, key in keys.items():
        assert key not in seen.values(), \
            f"GPUConfig field {name!r} does not change the cache key"
        seen[name] = key


def test_gpu_config_tier_never_serialized():
    # The sanctioned key exemption: the tier is dropped for every tier, so
    # both tiers share one content key with pre-tier serialized configs,
    # and a rebuilt config runs on the receiving process's default tier.
    base = GPUConfig.baseline()
    assert base.tier == "batch"
    for tier in ("event", "batch"):
        cfg = base.replace(tier=tier)
        assert "tier" not in cfg.to_dict()
        assert cfg.cache_key() == base.cache_key()
        assert json_round_trip(GPUConfig, cfg).tier == "batch"


def _same_dict(got: dict, want: dict) -> bool:
    """Equal keys in equal order, with equal values of equal JSON type."""
    return list(got.items()) == list(want.items()) \
        and json.dumps(got) == json.dumps(want)


def test_mixin_to_dict_builds_what_asdict_builds():
    inheriting = [cls for cls in _SerializableConfig.__subclasses__()
                  if cls.to_dict is _SerializableConfig.to_dict]
    assert {cls.__name__ for cls in inheriting} >= {
        "DRAMTiming", "NoCConfig", "AdaptiveConfig", "ServiceConfig"}
    for cls in inheriting:
        obj = cls()
        assert _same_dict(obj.to_dict(), dataclasses.asdict(obj)), \
            cls.__name__


def test_gpu_config_to_dict_builds_what_asdict_builds():
    assert GPUConfig._FIELDS == tuple(
        f.name for f in dataclasses.fields(GPUConfig))
    for name, cfg in gpu_config_variants().items():
        want = dataclasses.asdict(cfg)
        del want["tier"]
        assert _same_dict(cfg.to_dict(), want), name


def test_figure_11_cache_keys_are_pinned():
    """The content keys of the Figure 11 campaign, as re-captured when the
    per-line flush-cost constant left ``AdaptiveConfig`` (cache schema
    v6): a change here orphans every cached result."""
    from repro.experiments import fig11_adaptive_performance as fig11

    keys = sorted(spec.cache_key() for spec in fig11.specs(scale=0.02))
    assert len(keys) == 51
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == \
        "7998fc05c280cdad22af3cb67025e8cd3f3450a0b9a45a635bceb2b08f1e08d6"


# ---------------------------------------------------------------- RunSpec
def run_spec_variants() -> dict[str, RunSpec]:
    base = RunSpec(benchmark="VA", mode="shared",
                   cfg=GPUConfig.baseline())
    cfg2 = GPUConfig.baseline().replace(llc_assoc=8)
    return {
        "benchmark": dataclasses.replace(base, benchmark="GEMM"),
        "mode": dataclasses.replace(base, mode="private"),
        "cfg": dataclasses.replace(base, cfg=cfg2),
        "scale": dataclasses.replace(base, scale=2.0),
        "pair_with": dataclasses.replace(base, pair_with="SN"),
        "num_ctas": dataclasses.replace(base, num_ctas=4),
        "max_kernels": dataclasses.replace(base, max_kernels=5),
        "collect_locality": dataclasses.replace(base,
                                                collect_locality=True),
        "with_energy": dataclasses.replace(base, with_energy=True),
        "policy_params": dataclasses.replace(
            base, mode="miss-rate-threshold",
            policy_params={"interval": 2_000}),
        "mode_b": dataclasses.replace(base, pair_with="SN",
                                      mode_b="private"),
        "policy_params_b": dataclasses.replace(
            base, pair_with="SN", mode_b="miss-rate-threshold",
            policy_params_b={"interval": 2_500}),
        "extra": dataclasses.replace(
            base, pair_with="SN", extra=(("AN", "private", ()),)),
        "arrivals": dataclasses.replace(
            base, pair_with="SN", arrivals="poisson:gap=2000"),
        "placement": dataclasses.replace(
            base, pair_with="SN", placement="striped"),
        # seed canonicalizes to 0 without arrivals (a closed system draws
        # nothing), so its sentinel must ride an open-system spec.
        "seed": dataclasses.replace(
            base, pair_with="SN", arrivals="poisson", seed=3),
    }


def test_run_spec_variants_cover_every_field():
    field_names = {f.name for f in dataclasses.fields(RunSpec)}
    assert set(run_spec_variants()) == field_names, \
        "new RunSpec field needs a sentinel variant here"


def test_run_spec_every_field_round_trips():
    for name, spec in run_spec_variants().items():
        restored = json_round_trip(RunSpec, spec)
        assert restored == spec, f"field {name!r} lost in round trip"


def test_run_spec_every_field_feeds_cache_key():
    base = RunSpec(benchmark="VA", mode="shared",
                   cfg=GPUConfig.baseline())
    keys = {"<base>": base.cache_key()}
    # policy_params/policy_params_b variants change two fields at once
    # (the params need a mode that declares them); pin their comparators.
    extra = {
        "<mode=threshold>": dataclasses.replace(
            base, mode="miss-rate-threshold"),
        "<mode_b=threshold>": dataclasses.replace(
            base, pair_with="SN", mode_b="miss-rate-threshold"),
        # ...and the seed variant rides arrivals="poisson"; pin that
        # comparator so the seed itself is proven to feed the key.
        "<arrivals=poisson>": dataclasses.replace(
            base, pair_with="SN", arrivals="poisson"),
    }
    for name, spec in {**run_spec_variants(), **extra}.items():
        keys[name] = spec.cache_key()
    values = list(keys.values())
    assert len(set(values)) == len(values), \
        "two RunSpec variants share a cache key: " + repr(
            [n for n, k in keys.items() if values.count(k) > 1])


def test_run_spec_policy_params_alone_change_key():
    base = RunSpec(benchmark="VA", mode="miss-rate-threshold",
                   cfg=GPUConfig.baseline())
    tweaked = dataclasses.replace(base,
                                  policy_params={"interval": 2_000})
    assert base.cache_key() != tweaked.cache_key()


# --------------------------------------------------------------- RunResult
def sentinel_run_result() -> RunResult:
    kwargs = {
        "workload": "bfs",
        "mode": "adaptive",
        "cycles": 123_456.0,
        "instructions": 7_890_123.0,
        "ipc": 1.25,
        "llc_accesses": 1_000,
        "llc_hits": 600,
        "llc_misses": 400,
        "llc_miss_rate": 0.4,
        "llc_response_flits": 1_500.0,
        "llc_response_rate": 1.5,
        "l1_miss_rate": 0.3,
        "dram_reads": 350,
        "dram_writes": 50,
        "dram_bytes": 12_800.0,
        "transitions": 2,
        "stall_cycles": 777.0,
        "time_in_private": 5_000.0,
        "gated_cycles": 250.0,
        "mode_history": [(0.0, "shared"), (5_000.0, "private")],
        "decisions": [
            (4_999.0, Decision(mode=LLCMode.PRIVATE, rule="rule1",
                               shared_miss_rate=0.5,
                               private_miss_rate=0.2,
                               shared_bw=100.0, private_bw=140.0)),
        ],
        "programs": [
            ProgramStats(name="bfs", instructions=7_890_123.0, ipc=1.25,
                         policy="paper-adaptive", transitions=2,
                         mode_timeline=[[0.0, "shared", "static"]],
                         admitted_at=1_500.0,
                         latency={"count": 42, "p50": 210.0,
                                  "p95": 400.0, "p99": 512.0}),
        ],
        "occupancy": [[0.0, 1], [1_500.0, 2]],
        "locality_fractions": [0.4, 0.3, 0.2, 0.1],
        "energy": SystemEnergyReport(
            noc=NoCEnergyBreakdown(buffer=1.0, crossbar=2.0, links=3.0,
                                   other=4.0),
            sm_dynamic=5.0, l1_dynamic=6.0, llc_dynamic=7.0,
            dram_dynamic=8.0, static=9.0, cycles=123_456.0),
    }
    field_names = {f.name for f in dataclasses.fields(RunResult)
                   if not f.name.startswith("_")}
    assert set(kwargs) == field_names, \
        "new RunResult field needs a sentinel here"
    return RunResult(**kwargs)


def test_run_result_every_field_round_trips():
    result = sentinel_run_result()
    restored = json_round_trip(RunResult, result)
    for f in dataclasses.fields(RunResult):
        assert getattr(restored, f.name) == getattr(result, f.name), \
            f"RunResult field {f.name!r} lost in round trip"
    assert restored == result


def test_run_result_defaults_round_trip():
    # The minimal result (no adaptive history, no energy) — the shape
    # static-policy runs actually produce.
    result = RunResult(workload="bc", mode="shared", cycles=10.0,
                       instructions=20.0, ipc=2.0, llc_accesses=1,
                       llc_hits=1, llc_misses=0, llc_miss_rate=0.0,
                       llc_response_flits=4.0, llc_response_rate=0.4,
                       l1_miss_rate=0.5, dram_reads=0, dram_writes=0,
                       dram_bytes=0.0)
    assert json_round_trip(RunResult, result) == result


def test_policy_params_b_without_mode_b_rejected():
    with pytest.raises(ValueError, match="requires mode_b"):
        RunSpec(benchmark="VA", mode="shared", cfg=GPUConfig.baseline(),
                policy_params_b={"interval": 2_000})
