"""Campaign layer: spec content keys, config/result round-trips, the
on-disk cache, dedup, and the process-parallel execution path."""

import gc
import json
import os

import pytest

from repro.cli import main, sweep_config
from repro.config import GPUConfig, canonical_key
from repro.experiments import fig02_shared_vs_private, fig11_adaptive_performance, fig12_response_rate, figure_rows
from repro.experiments.campaign import CACHE_VERSION, Campaign, RunSpec
from repro.experiments.fig16_sensitivity import sweep_configs
from repro.experiments.runner import experiment_config

TINY = 0.05


# ------------------------------------------------------ config round trips
def test_baseline_config_round_trips():
    cfg = GPUConfig.baseline()
    assert GPUConfig.from_dict(cfg.to_dict()) == cfg


def test_every_fig16_sensitivity_config_round_trips():
    points = sweep_configs()
    assert len(points) >= 15
    for _, _, cfg in points:
        clone = GPUConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.cache_key() == cfg.cache_key()


def test_config_from_dict_rejects_unknown_fields():
    data = GPUConfig.baseline().to_dict()
    data["warp_speed"] = 9
    with pytest.raises(ValueError, match="warp_speed"):
        GPUConfig.from_dict(data)


def test_config_cache_key_tracks_content():
    base = experiment_config()
    assert base.cache_key() == experiment_config().cache_key()
    assert base.cache_key() != base.replace(l1_size_kb=64).cache_key()


# ----------------------------------------------------------- RunSpec keys
def test_runspec_round_trip_and_key_stability():
    spec = RunSpec.single("VA", "adaptive", scale=TINY, with_energy=True)
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.cache_key() == spec.cache_key()
    # the frozen spec hashes once: a repeat call returns the same string
    # object, and the kept key is no field (equality and to_dict ignore it)
    assert spec.cache_key() is spec.cache_key()
    assert spec.cache_key() == canonical_key(spec.to_dict())


def test_runspec_key_distinguishes_every_axis():
    base = RunSpec.single("VA", "shared", scale=TINY)
    variants = [
        RunSpec.single("GEMM", "shared", scale=TINY),
        RunSpec.single("VA", "private", scale=TINY),
        RunSpec.single("VA", "shared", scale=0.1),
        RunSpec.single("VA", "shared", scale=TINY, with_energy=True),
        RunSpec.single("VA", "shared", scale=TINY, collect_locality=True),
        RunSpec.single("VA", "shared", scale=TINY, max_kernels=1),
        RunSpec.single("VA", "shared",
                       cfg=experiment_config(l1_size_kb=64), scale=TINY),
        RunSpec.pair("VA", "AN", "shared", scale=TINY),
    ]
    keys = {v.cache_key() for v in variants}
    assert len(keys) == len(variants)
    assert base.cache_key() not in keys


@pytest.mark.parametrize("abbr, make", [
    ("ZZZ", lambda: RunSpec(benchmark="ZZZ", mode="shared",
                            cfg=experiment_config())),
    ("QQQ", lambda: RunSpec.pair("VA", "QQQ", "shared")),
    ("XYZ", lambda: RunSpec.pair("VA", "GEMM", "shared",
                                 extra=(("XYZ", "shared", None),))),
], ids=["benchmark", "pair_with", "extra"])
def test_unknown_benchmarks_are_rejected_where_the_spec_is_built(abbr, make):
    with pytest.raises(ValueError, match=f"unknown benchmark '{abbr}'"):
        make()


# ------------------------------------------------- determinism + the cache
def test_fresh_run_and_cache_hit_serialize_identically(tmp_path):
    cache = str(tmp_path / "cache")
    spec = RunSpec.single("VA", "adaptive", scale=TINY, with_energy=True)

    first = Campaign(cache_dir=cache)
    fresh = first.result(spec)
    assert first.executed == 1

    second = Campaign(cache_dir=cache)
    cached = second.result(spec)
    assert second.executed == 0
    assert second.cache_hits == 1
    assert cached.to_dict() == fresh.to_dict()
    assert cached == fresh

    # and a from-scratch re-simulation is deterministic too
    rerun = Campaign().result(spec)
    assert rerun.to_dict() == fresh.to_dict()


def test_cache_survives_json_round_trip_with_energy_and_pair(tmp_path):
    cache = str(tmp_path / "cache")
    spec = RunSpec.pair("GEMM", "AN", "shared", scale=TINY)
    fresh = Campaign(cache_dir=cache).result(spec)
    cached = Campaign(cache_dir=cache).result(spec)
    assert [p.to_dict() for p in cached.programs] == \
        [p.to_dict() for p in fresh.programs]
    assert cached.to_dict() == fresh.to_dict()


def test_stale_cache_version_is_ignored(tmp_path):
    cache = str(tmp_path / "cache")
    spec = RunSpec.single("VA", "shared", scale=TINY)
    Campaign(cache_dir=cache).result(spec)
    path = os.path.join(cache, f"{spec.cache_key()}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["version"] = CACHE_VERSION + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    campaign = Campaign(cache_dir=cache)
    campaign.result(spec)
    assert campaign.executed == 1  # stale entry re-simulated


def test_corrupt_cache_entry_is_re_run(tmp_path):
    cache = str(tmp_path / "cache")
    spec = RunSpec.single("VA", "shared", scale=TINY)
    os.makedirs(cache)
    with open(os.path.join(cache, f"{spec.cache_key()}.json"), "w",
              encoding="utf-8") as fh:
        fh.write("{not json")
    campaign = Campaign(cache_dir=cache)
    res = campaign.result(spec)
    assert campaign.executed == 1
    assert res.ipc > 0


def test_structurally_corrupt_cache_entry_is_re_run(tmp_path):
    """Valid JSON of the wrong shape must fall through to a re-run too."""
    cache = str(tmp_path / "cache")
    spec = RunSpec.single("VA", "shared", scale=TINY)
    Campaign(cache_dir=cache).result(spec)
    path = os.path.join(cache, f"{spec.cache_key()}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["result"]["decisions"] = [5]  # not a (when, decision) pair
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    campaign = Campaign(cache_dir=cache)
    res = campaign.result(spec)
    assert campaign.executed == 1
    assert res.ipc > 0


# ------------------------------------------------------------------ dedup
#: ``canonical_key`` of the figure rows the tests below compute.
ROW_DIGESTS = {
    "fig02/private": "bc199ea43e7979f1401da4bd9eea3eee7ae0a2ad897b21ed2b2583ccfc4a9106",
    "fig11/private": "47bdff1b52a9ec9124ac4dd718712261726103761731c420f16137cf6f548946",
    "fig12": "65964f7e195daacb74a54864b5e07b1766c680e9e38d81bcddb758ad734fef0d",
}


def test_duplicate_specs_execute_once():
    campaign = Campaign()
    spec = RunSpec.single("VA", "shared", scale=TINY)
    results = campaign.results([spec, spec, spec])
    assert campaign.executed == 1
    assert campaign.memo_hits == 2
    assert results[0] is results[1] is results[2]


@pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", True, None])
def test_campaign_rejects_a_pool_width_that_is_not_a_positive_int(jobs):
    with pytest.raises(ValueError, match="jobs must be"):
        Campaign(jobs=jobs)


def test_figures_11_and_12_share_their_private_category_runs(
        figure_subset_rows):
    campaign = Campaign()
    rows11 = figure_subset_rows(fig11_adaptive_performance, TINY,
                                lambda cell: cell[0] == "private", campaign)
    first = campaign.executed
    assert first == 15  # 5 private-friendly benchmarks x 3 modes
    rows12 = figure_rows(fig12_response_rate, TINY, campaign)
    assert campaign.executed == first  # identical specs: zero new runs
    assert canonical_key(rows11) == ROW_DIGESTS["fig11/private"]
    assert canonical_key(rows12) == ROW_DIGESTS["fig12"]


def test_warm_figure_rerun_performs_zero_new_simulations(
        tmp_path, figure_subset_rows):
    cache = str(tmp_path / "cache")

    def private_rows(campaign):
        return figure_subset_rows(fig02_shared_vs_private, TINY,
                                  lambda cell: cell[0] == "private",
                                  campaign)

    cold = Campaign(cache_dir=cache)
    rows_cold = private_rows(cold)
    assert cold.executed == 10  # 5 benchmarks x {shared, private}

    warm = Campaign(cache_dir=cache)
    rows_warm = private_rows(warm)
    assert warm.executed == 0
    assert warm.cache_hits == 10
    # identical rows, keys and values (HM rows hold NaN: compare via repr,
    # which is exact for floats and treats NaN == NaN)
    assert repr(rows_warm) == repr(rows_cold)
    assert canonical_key(rows_cold) == ROW_DIGESTS["fig02/private"]


# ------------------------------------------------------------- parallelism
def test_parallel_pool_matches_serial_execution():
    specs = [RunSpec.single("VA", mode, scale=TINY)
             for mode in ("shared", "private")]
    parallel = Campaign(jobs=2)
    serial = Campaign(jobs=1)
    for a, b in zip(parallel.results(specs), serial.results(specs)):
        assert a.to_dict() == b.to_dict()
    assert parallel.executed == serial.executed == 2


# ------------------------------------------------------------- CLI surface
def test_cli_sweep_warm_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--benchmarks", "VA", "--modes", "shared,adaptive",
            "--scale", str(TINY), "--cache-dir", cache]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 simulations, 0 disk-cache hits" in out
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 simulations, 2 disk-cache hits" in out


def test_cli_sweep_config_overrides(capsys):
    assert main(["sweep", "--benchmarks", "VA", "--modes", "shared",
                 "--scale", str(TINY), "--set", "noc.channel_bytes=16",
                 "--set", "address_mapping=hynix"]) == 0
    assert "VA" in capsys.readouterr().out


def test_cli_sweep_rejects_unknown_override(capsys):
    assert main(["sweep", "--benchmarks", "VA", "--modes", "shared",
                 "--set", "bogus_field=3"]) == 2
    assert "unknown config field" in capsys.readouterr().err


def test_cli_sweep_rejects_impossible_geometry(capsys):
    for override in ("llc_assoc=0", "l1_assoc=0", "line_bytes=0",
                     "llc_latency_cycles=-3"):
        assert main(["sweep", "--benchmarks", "VA", "--modes", "shared",
                     "--set", override]) == 2, override
        name = override.split("=")[0]
        assert f"error: {name} must be" in capsys.readouterr().err


def test_cli_sweep_rejects_disabled_adaptive_knob(capsys):
    # Nothing reads adaptive.enabled: a False value would key a new cache
    # entry and still run the adaptive controller.
    assert main(["sweep", "--benchmarks", "VA", "--modes", "adaptive",
                 "--scale", str(TINY),
                 "--set", "adaptive.enabled=false"]) == 2
    assert "error: adaptive.enabled must be True, got False" \
        in capsys.readouterr().err


def test_cli_sweep_rejects_unknown_benchmark(capsys):
    assert main(["sweep", "--benchmarks", "NOPE"]) == 2
    assert "unknown benchmarks" in capsys.readouterr().err


def test_pair_spec_honors_energy_flag():
    spec = RunSpec(benchmark="GEMM", mode="shared",
                   cfg=experiment_config(), scale=TINY, pair_with="AN",
                   max_kernels=1, with_energy=True)
    res = Campaign().result(spec)
    assert res.energy is not None
    assert res.energy.total > 0


def test_sweep_config_float_overrides_hash_like_native_floats():
    int_form = sweep_config([("dram_bandwidth_gbps", 450)])
    float_form = sweep_config([("dram_bandwidth_gbps", 450.0)])
    assert int_form.cache_key() == float_form.cache_key()
    assert int_form.cache_key() == \
        experiment_config(dram_bandwidth_gbps=450.0).cache_key()


def test_sweep_config_builds_nested_overrides():
    cfg = sweep_config([("noc.channel_bytes", 16),
                        ("adaptive.epoch_cycles", 99_000),
                        ("l1_size_kb", 64)])
    assert cfg.noc.channel_bytes == 16
    assert cfg.adaptive.epoch_cycles == 99_000
    assert cfg.l1_size_kb == 64
    # untouched fields keep the scaled experiment defaults
    assert cfg.adaptive.atd_sampled_sets == 48


def test_cli_parser_accepts_campaign_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["figure", "all", "--jobs", "4",
                              "--cache-dir", "/tmp/x"])
    assert args.number == "all" and args.jobs == 4
    args = parser.parse_args(["compare", "VA", "--jobs", "2"])
    assert args.jobs == 2
    args = parser.parse_args(["run", "VA", "--cache-dir", "d"])
    assert args.cache_dir == "d"


def test_cli_compare_normalizes_to_shared(capsys):
    assert main(["compare", "GEMM", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "vs_shared" in out


# ------------------------------------------------- worker failure labeling
def test_failing_spec_names_itself_inline(failing_specs):
    from repro.experiments.campaign import SpecExecutionError

    bad = RunSpec(benchmark="VA", mode="shared", cfg=experiment_config(),
                  scale=TINY)
    failing_specs.add(bad.label())
    campaign = Campaign(jobs=1)
    with pytest.raises(SpecExecutionError) as err:
        campaign.result(bad)
    assert "VA/shared" in str(err.value)
    assert err.value.label == bad.label()
    # The memo holds no entry for the failed spec — a retry re-executes
    # instead of serving a corrupt record.
    assert bad.cache_key() not in campaign._memo


# ------------------------------------------- spec-scoped garbage collection
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("raises", [False, True], ids=["ok", "raises"])
def test_execute_spec_restores_the_callers_gc_state(enabled, raises,
                                                    failing_specs):
    """The collector pause is scoped to the spec: whatever the caller had
    (enabled or disabled) is what it gets back, also when the spec
    raises (an injected fault, as in the inline failing-spec test
    above)."""
    from repro.experiments.campaign import execute_spec

    spec = RunSpec.single("VA", "shared", experiment_config(),
                          scale=TINY, max_kernels=1)
    if raises:
        failing_specs.add(spec.label())
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(Exception):
                execute_spec(spec)
        else:
            execute_spec(spec)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_execute_spec_frees_its_system_on_return():
    """A finished system holds no reference cycle, so it is freed when
    `execute_spec` returns, with the collector paused and no pass run:
    no system outlives the spec waiting for a collection (this test
    never collects).  Systems already awaiting collection from earlier
    tests are skipped by identity."""
    from repro.experiments.campaign import execute_spec
    from repro.gpu.system import GPUSystem

    def systems() -> set:
        return {id(o) for o in gc.get_objects() if isinstance(o, GPUSystem)}

    before = systems()
    execute_spec(RunSpec.single("VA", "adaptive", experiment_config(),
                                scale=TINY, max_kernels=1))
    assert not systems() - before


def test_failing_spec_names_itself_across_the_pool(forked_failing_specs):
    from repro.experiments.campaign import SpecExecutionError

    bad = [RunSpec(benchmark="VA", mode=m, cfg=experiment_config(),
                   scale=TINY) for m in ("shared", "private")]
    forked_failing_specs.update(spec.label() for spec in bad)
    campaign = Campaign(jobs=2)
    with pytest.raises(SpecExecutionError) as err:
        campaign.results(bad)
    assert "VA/" in str(err.value)
    assert all(spec.cache_key() not in campaign._memo for spec in bad)
    # The campaign stays usable after a worker death.
    good = campaign.result(RunSpec.single("VA", "adaptive", scale=TINY))
    assert good.cycles > 0


def test_spec_execution_error_pickles_with_label():
    import pickle

    from repro.experiments.campaign import SpecExecutionError

    err = SpecExecutionError("run spec VA/shared@0.05 failed: boom",
                             "VA/shared@0.05")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, SpecExecutionError)
    assert clone.label == "VA/shared@0.05"
    assert "boom" in str(clone)


# --------------------------------------------------- spec-shape pinning
PIN_SCALE = 0.02

#: One spec per way a RunSpec becomes a simulation, keyed by a short name.
#: Oracle shapes also run with their static probes injected (``+probes``).
PINNED_SHAPES = {
    "single/static": lambda: RunSpec.single("VA", "shared", scale=PIN_SCALE),
    "single/adaptive+energy+locality": lambda: RunSpec.single(
        "GEMM", "adaptive", scale=PIN_SCALE, with_energy=True,
        collect_locality=True),
    "single/hysteresis-params": lambda: RunSpec.single(
        "SN", "hysteresis", scale=PIN_SCALE,
        policy_params={"interval": 300, "min_samples": 32}),
    "single/event-tier": lambda: RunSpec.single(
        "RN", "adaptive", experiment_config(tier="event"), scale=PIN_SCALE),
    "single/oracle": lambda: RunSpec.single("GEMM", "oracle-static",
                                            scale=PIN_SCALE),
    "pair/adaptive": lambda: RunSpec.pair("GEMM", "AN", "adaptive",
                                          scale=PIN_SCALE),
    "pair/static+energy": lambda: RunSpec(
        benchmark="VA", mode="private", cfg=experiment_config(),
        scale=PIN_SCALE, pair_with="SN", max_kernels=1, with_energy=True),
    "pair/oracle": lambda: RunSpec.pair("GEMM", "SN", "oracle-static",
                                        scale=PIN_SCALE),
    "mix/heterogeneous": lambda: RunSpec.pair(
        "GEMM", "SN", "static-private", scale=PIN_SCALE,
        mode_b="paper-adaptive"),
    "consolidation/closed-3": lambda: RunSpec.pair(
        "VA", "GEMM", "shared", scale=PIN_SCALE,
        extra=(("SN", "adaptive", None),)),
    "consolidation/poisson-2": lambda: RunSpec.pair(
        "GEMM", "AN", "adaptive", scale=PIN_SCALE,
        arrivals="poisson:gap=2000", seed=7),
    "consolidation/striped": lambda: RunSpec.pair(
        "GEMM", "SN", "shared", scale=PIN_SCALE,
        extra=(("AN", "private", None),), placement="striped"),
}

#: sha256 of ``canonical_key(execute_spec(spec).to_dict())`` per shape.
PINNED_DIGESTS = {
    'single/static': '7bde44307ec0b943dc23e838be5fbf216073e8dc21557b27ae2337902a0cae39',
    'single/adaptive+energy+locality': '1f1ebda210ad6213b3b8d908552aa05f06e21bb58708fa9641e1457bbd3f1e39',
    'single/hysteresis-params': '5f992ed4a65cd545109b121956692f83de1e70316af9830dc1668d6acd19f612',
    'single/event-tier': '74ce7031ad428f0b46febabe3ee8a4a6db6019c272dffb46f1d56cf39c0a1fca',
    'single/oracle': 'a86df2ac360f0f48c8089133b202e5d021ff7b964b575eb984246735deed2f55',
    'single/oracle+probes': 'a86df2ac360f0f48c8089133b202e5d021ff7b964b575eb984246735deed2f55',
    'pair/adaptive': '8be6eac986acbe60add414b1c1e08a04a1cd97533811ffd55fdd7c16b8b45f17',
    'pair/static+energy': '2f47ad03336ad20a32e62d67f2f43ea8fbc12cb7a48d486ec8422b1c3926cee0',
    'pair/oracle': '1980aeac1750d110d0d6cacf5732f22079abb6f118d930ca728fe1051562b756',
    'pair/oracle+probes': '1980aeac1750d110d0d6cacf5732f22079abb6f118d930ca728fe1051562b756',
    'mix/heterogeneous': '377432ec8ab3679a0926dc999ee818bb4ef6b55e9ac57a589493ec011a89b6e3',
    'consolidation/closed-3': 'fcfbf0afbf1b1394d299f1a3d49b934a18f68fc49f67f5ee7785872394547897',
    'consolidation/poisson-2': '9f0215ae91254f494e9752666635cbc4695a9541d48c5fc79f0c783e81e590fb',
    'consolidation/striped': '84e1075d80bdb228fed677c4615fd1d9bfcc46ee01ca1e50be8a10234d83a4f3',
}


def _shape_digests() -> dict:
    from repro.config import canonical_key
    from repro.experiments.campaign import (_probe_payload, execute_spec,
                                            probe_specs_for)

    out = {}
    for name, make in PINNED_SHAPES.items():
        spec = make()
        out[name] = canonical_key(execute_spec(spec).to_dict())
        probe_specs = probe_specs_for(spec)
        if probe_specs is not None:
            shared, private = (execute_spec(p) for p in probe_specs)
            probes = {"shared": _probe_payload(shared),
                      "private": _probe_payload(private)}
            out[f"{name}+probes"] = canonical_key(
                execute_spec(spec, probes=probes).to_dict())
    return out


def test_every_spec_shape_is_pinned():
    """Every way a spec becomes a simulation reproduces its pinned result
    byte for byte (the goldens cover three policies and one pair)."""
    assert _shape_digests() == PINNED_DIGESTS


# ------------------------------------------------ one trace per worker
def test_a_campaign_generates_each_trace_once(monkeypatch):
    """Figure 11 runs 17 benchmarks under three policies: sorted by
    trace, the campaign's 51 specs generate 17 traces, even when they
    arrive policy by policy."""
    from repro.experiments import campaign as campaign_mod

    calls = []
    generate = campaign_mod.generate_workload

    def counting(*args, **kwargs):
        calls.append(args[0].abbr)
        return generate(*args, **kwargs)

    monkeypatch.setattr(campaign_mod, "generate_workload", counting)
    monkeypatch.setattr(campaign_mod, "_last_trace", None)
    specs = sorted(fig11_adaptive_performance.specs(scale=PIN_SCALE),
                   key=lambda spec: spec.mode)
    assert len(specs) == 51
    Campaign(jobs=1).results(specs)
    assert len(calls) == len({campaign_mod.trace_key(s) for s in specs}) \
        == 17


def _trace_digest(trace) -> str:
    import hashlib

    digest = hashlib.sha256()
    for program in getattr(trace, "programs", (trace,)):
        for kernel in program.kernels:
            for cta in kernel.ctas:
                digest.update(repr((cta.keys, cta.writes)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("make", [
    lambda mode: RunSpec.single("GEMM", mode, scale=PIN_SCALE),
    lambda mode: RunSpec.pair("GEMM", "SN", mode, scale=PIN_SCALE),
], ids=["single", "pair"])
def test_a_shared_trace_is_never_mutated(make):
    """The memo hands one trace object to all three policies' systems;
    none of them may write to it."""
    from repro.experiments import campaign as campaign_mod
    from repro.experiments.campaign import execute_spec, trace_key

    specs = [make(mode) for mode in ("shared", "private", "adaptive")]
    assert len({trace_key(spec) for spec in specs}) == 1
    trace = campaign_mod._trace(trace_key(specs[0]))
    before = _trace_digest(trace)
    for spec in specs:
        execute_spec(spec)
        assert campaign_mod._last_trace[1] is trace
    assert _trace_digest(trace) == before


def test_a_failing_spec_loses_no_finished_spec_of_its_task(
        tmp_path, forked_failing_specs):
    """The pool runs one task per trace here, three policies each; one
    spec fails in the middle of its task, and every other spec is still
    memoized and stored."""
    from repro.experiments.campaign import SpecExecutionError, trace_key

    specs = sorted(fig11_adaptive_performance.specs(scale=PIN_SCALE),
                   key=trace_key)
    bad = specs[1]
    assert trace_key(specs[0]) == trace_key(bad) == trace_key(specs[2])
    forked_failing_specs.add(bad.label())
    campaign = Campaign(jobs=2, cache_dir=str(tmp_path / "cache"))
    with pytest.raises(SpecExecutionError) as err:
        campaign.results(specs)
    assert err.value.label == bad.label()
    assert bad.cache_key() not in campaign._memo
    assert campaign.executed == len(specs) - 1
    for spec in specs:
        if spec is not bad:
            assert spec.cache_key() in campaign._memo
            assert campaign.store.load(spec.cache_key()) is not None
