"""The Scenario API: first-class programs with per-program policies.

Covers the redesign's contracts end to end: per-program counter isolation
in mixes (program A's misses never move program B's controller), scenario
round-trip serialization and cache-key stability, the golden pin that
one-entry scenarios reproduce legacy single-workload captures
byte-identically, heterogeneous execution through the campaign/CLI, the
oracle probe-reuse path, the scale-derived interval-policy defaults, and
the bandit policy's determinism.
"""

import json
import os

import pytest

from repro.config import AdaptiveConfig, GPUConfig, canonical_key
from repro.experiments.campaign import (
    Campaign,
    RunSpec,
    execute_spec,
    probe_specs_for,
)
from repro.experiments.runner import _mix_accesses, scaled_policy_params
from repro.gpu.system import GPUSystem
from repro.scenario import ProgramSpec, Scenario, parse_mix, parse_mix_entry
from repro.workloads.catalog import build
from repro.workloads.multiprogram import make_mix

TINY = 0.02

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_runresults.json")


def small_cfg(**kw):
    cfg = GPUConfig.baseline().replace(
        adaptive=AdaptiveConfig(epoch_cycles=20_000, profile_cycles=800,
                                atd_sampled_sets=48, miss_rate_margin=0.05))
    return cfg.replace(**kw) if kw else cfg


def hetero_system(policy_a="static-shared", policy_b="hysteresis",
                  params_b=None, n=8000):
    cfg = small_cfg()
    mp = make_mix(("GEMM", "SN"), total_accesses=n, num_ctas=160,
                  max_kernels=1)
    scenario = Scenario.mix(
        ProgramSpec(mp.programs[0], policy_a),
        ProgramSpec(mp.programs[1], policy_b,
                    params_b or {"dwell": 1, "interval": 800}))
    return GPUSystem(cfg, scenario)


# ------------------------------------------------------------- golden pin
def test_one_entry_scenario_reproduces_legacy_golden_captures():
    """A single-program scenario is the legacy run, byte for byte — pinned
    against the pre-Scenario golden captures themselves."""
    from repro.experiments.runner import _accesses_for, experiment_config
    from repro.workloads.catalog import benchmark
    from repro.workloads.generator import generate_workload

    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    singles = [e for e in golden.values() if not e["spec"]["pair_with"]]
    assert singles, "golden file lost its single-program captures"
    for entry in singles:
        spec = RunSpec.from_dict(entry["spec"])
        # The captures came from the event tier, the parity reference.
        cfg = spec.cfg.replace(tier="event")
        num_ctas = spec.num_ctas
        if num_ctas is None:
            num_ctas = 2 * cfg.num_sms
        workload = generate_workload(
            benchmark(spec.benchmark), num_ctas=num_ctas,
            total_accesses=_accesses_for(spec.benchmark, spec.scale),
            max_kernels=spec.max_kernels)
        scenario = Scenario.single(workload, spec.mode)
        system = GPUSystem(cfg, scenario)
        assert system.tier == "event"
        result = system.run().to_dict()
        assert result == entry["result"], (
            f"{entry['label']}: one-entry scenario diverged from the "
            f"legacy golden capture")


def test_scenario_rejects_global_policy_kwargs():
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    scenario = Scenario.single(w, "shared")
    with pytest.raises(ValueError, match="per-program policies"):
        GPUSystem(small_cfg(), scenario, policy="shared")
    with pytest.raises(ValueError, match="at least one"):
        Scenario([])


def test_scenario_accepts_n_programs():
    """The 2-program cap is gone: N tenants build under the generalized
    cluster-split placement, every tenant owning at least one SM."""
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    system = GPUSystem(small_cfg(), Scenario([ProgramSpec(w)] * 3))
    assert len(system.programs) == 3
    owned = [set(p.sm_ids) for p in system.programs]
    assert all(owned[i].isdisjoint(owned[j])
               for i in range(3) for j in range(i + 1, 3))
    assert set().union(*owned) == set(range(system.cfg.num_sms))


def test_scenario_rejects_shared_policy_instance():
    """One LLCPolicy instance cannot govern two programs: the second
    bind() would clobber its scope and its stats would harvest twice."""
    from repro.policy import create_policy

    mp = make_mix(("GEMM", "SN"), total_accesses=4000, num_ctas=160,
                  max_kernels=1)
    shared_instance = create_policy("hysteresis", {"dwell": 1})
    scenario = Scenario.mix(
        ProgramSpec(mp.programs[0], shared_instance),
        ProgramSpec(mp.programs[1], shared_instance))
    with pytest.raises(ValueError, match="its own LLCPolicy instance"):
        GPUSystem(small_cfg(), scenario)


# ------------------------------------------------- heterogeneous execution
def test_heterogeneous_mix_reports_per_program_policies():
    system = hetero_system()
    res = system.run()
    # per-program labels carry the full canonical policy spec
    assert res.mode == "static-shared+hysteresis:dwell=1,interval=800"
    assert [p.policy for p in res.programs] == \
        ["static-shared", "hysteresis:dwell=1,interval=800"]
    # program A is static: synthetic timeline, no transitions
    assert res.programs[0].transitions == 0
    assert res.programs[0].mode_timeline == [[0.0, "shared", "static"]]
    # program B's controller drove its own mode and recorded the timeline
    assert res.programs[1].mode_timeline[0][2] == "start"
    assert res.programs[1].transitions == \
        int(system.programs[1].controller.transitions)
    # the controllers live only on their own program
    assert system.programs[0].controller is None
    assert system.programs[1].controller is not None


def test_per_program_counters_partition_global_traffic():
    system = hetero_system()
    system.run()
    total = sum(sl.accesses for sl in system.llc_slices)
    a, b = system.programs
    assert a.llc_accesses > 0 and b.llc_accesses > 0
    assert a.llc_accesses + b.llc_accesses == total
    assert a.llc_hits + b.llc_hits == sum(sl.hits for sl in system.llc_slices)


def test_interval_controller_observes_only_its_program():
    """Program A's misses never move program B's controller window."""
    system = hetero_system()
    ctrl = system.programs[1].controller
    assert ctrl.prog is system.programs[1]
    ctrl._baseline()
    before = ctrl._seen_accesses
    system.programs[0].llc_accesses += 1234  # co-runner traffic
    system.programs[0].llc_hits += 1000
    ctrl._baseline()
    assert ctrl._seen_accesses == before
    system.programs[1].llc_accesses += 7
    ctrl._baseline()
    assert ctrl._seen_accesses == before + 7


def test_counters_stay_disabled_without_interval_policies():
    cfg = small_cfg()
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    system = GPUSystem(cfg, w, policy="shared")
    system.run()
    assert system.count_program_llc is False
    assert system.programs[0].llc_accesses == 0


def test_run_mix_equals_run_pair_when_homogeneous():
    """The Scenario path changes labeling, not simulation: a homogeneous
    mix declared per program matches the one-policy pair on every
    physical number.  No RunSpec spells that mix (it canonicalizes to the
    pair), so it is built by hand from the pair's own traces."""
    cfg = small_cfg()
    pair = execute_spec(RunSpec.pair("GEMM", "SN", "shared", cfg,
                                     scale=TINY))
    mp = make_mix(("GEMM", "SN"), total_accesses=_mix_accesses(TINY),
                  num_ctas=2 * cfg.num_sms, max_kernels=1)
    mix = GPUSystem(cfg, Scenario.mix(
        *(ProgramSpec(wl, "shared") for wl in mp.programs))).run()
    pair_d, mix_d = pair.to_dict(), mix.to_dict()
    # explicit scenarios label the mode per program and annotate
    # per-program stats; physics must be untouched
    assert mix_d.pop("mode") == "shared+shared"
    pair_d.pop("mode")
    for prog in mix_d["programs"]:
        prog.pop("policy"), prog.pop("transitions"), prog.pop("mode_timeline")
    assert mix_d == pair_d


# ---------------------------------------------------- spec round-tripping
def test_heterogeneous_spec_round_trips_and_keys_stay_stable():
    spec = RunSpec.pair("GEMM", "SN", "shared", scale=TINY,
                        mode_b="hysteresis",
                        policy_params_b={"dwell": 3})
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.cache_key() == spec.cache_key()
    assert spec.label() == f"GEMM:shared+SN:hysteresis:dwell=3@{TINY:g}"
    assert spec.program_entries() == [("GEMM", "shared"),
                                      ("SN", "hysteresis:dwell=3")]
    # parameters join the key
    other = RunSpec.pair("GEMM", "SN", "shared", scale=TINY,
                         mode_b="hysteresis")
    assert other.cache_key() != spec.cache_key()


def test_homogeneous_mix_canonicalizes_to_legacy_spec():
    legacy = RunSpec.pair("GEMM", "SN", "adaptive", scale=TINY)
    per_program = RunSpec.pair("GEMM", "SN", "adaptive", scale=TINY,
                               mode_b="adaptive")
    assert per_program == legacy
    assert per_program.mode_b is None
    assert per_program.cache_key() == legacy.cache_key()
    assert "mode_b" not in legacy.to_dict()


def test_mode_b_requires_pair():
    with pytest.raises(ValueError, match="requires pair_with"):
        RunSpec.single("VA", "shared", scale=TINY).__class__(
            benchmark="VA", mode="shared",
            cfg=RunSpec.single("VA", "shared", scale=TINY).cfg,
            mode_b="private")
    with pytest.raises(ValueError, match="requires mode_b"):
        RunSpec(benchmark="GEMM", mode="shared", pair_with="SN",
                cfg=RunSpec.single("VA", "shared", scale=TINY).cfg,
                policy_params_b=(("dwell", 3),))


def test_heterogeneous_spec_executes_and_caches(tmp_path):
    spec = RunSpec.pair("GEMM", "SN", "static-shared", scale=TINY,
                        mode_b="static-private")
    campaign = Campaign(cache_dir=str(tmp_path))
    res = campaign.result(spec)
    assert [p.policy for p in res.programs] == ["static-shared",
                                                "static-private"]
    warm = Campaign(cache_dir=str(tmp_path))
    again = warm.result(spec)
    assert warm.cache_hits == 1 and warm.executed == 0
    assert again.to_dict() == res.to_dict()


# ------------------------------------------------------------ mix grammar
def test_parse_mix_grammar():
    assert parse_mix_entry("GEMM") == ("GEMM", None)
    abbr, policy = parse_mix_entry("SN:hysteresis:dwell=3,low=0.3")
    assert abbr == "SN" and policy.name == "hysteresis"
    assert policy.params_dict() == {"dwell": 3, "low": 0.3}
    entries = parse_mix("GEMM:paper-adaptive+SN")
    assert entries[0][1].name == "paper-adaptive"
    assert entries[1] == ("SN", None)
    with pytest.raises(ValueError, match="no benchmark"):
        parse_mix_entry(":shared")
    with pytest.raises(ValueError, match="empty program"):
        parse_mix("GEMM++SN")


def test_cli_run_mix_heterogeneous(capsys):
    from repro.cli import main

    assert main(["run", "--mix", "GEMM:paper-adaptive+SN:static-private",
                 "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "paper-adaptive+static-private" in out
    assert "GEMM [paper-adaptive]" in out
    assert "SN [static-private]" in out


def test_cli_run_mix_conflicts(capsys):
    from repro.cli import main

    assert main(["run", "VA", "--mix", "GEMM+SN"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["run", "VA", "--tenants", "3"]) == 2
    assert main(["run"]) == 2
    with pytest.raises(SystemExit):
        main(["run", "--mix", "GEMM:nope+SN"])
    with pytest.raises(SystemExit):
        main(["run", "--mix", "NOPE+SN"])


def test_cli_sweep_pairs_with_policy_b(capsys):
    from repro.cli import main

    assert main(["sweep", "--pairs", "GEMM+SN",
                 "--policy", "static-shared",
                 "--policy-b", "static-private",
                 "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "static-private" in out and "ipc_b" in out
    # --policy-b without --pairs is an error
    assert main(["sweep", "--benchmarks", "VA",
                 "--policy-b", "static-private"]) == 2
    assert "requires --pairs" in capsys.readouterr().err


# ------------------------------------------------------ oracle probe reuse
def test_oracle_probes_route_through_campaign_cache(tmp_path):
    cfg = RunSpec.single("VA", "shared", scale=TINY).cfg
    statics = [RunSpec.single("VA", m, cfg, scale=TINY)
               for m in ("shared", "private")]
    oracle = RunSpec.single("VA", "oracle-static", cfg, scale=TINY)
    probes = probe_specs_for(oracle)
    assert [p.cache_key() for p in probes] == \
        [s.cache_key() for s in statics]
    campaign = Campaign(cache_dir=str(tmp_path))
    campaign.prefetch(statics + [oracle])
    assert campaign.executed == 3  # not 5: probes are the static columns
    # injected probes change nothing: byte-identical to inline probing
    inline = execute_spec(oracle)
    assert campaign.result(oracle).to_dict() == inline.to_dict()


def test_probe_specs_only_for_plain_oracle():
    assert probe_specs_for(RunSpec.single("VA", "shared",
                                          scale=TINY)) is None
    hetero = RunSpec.pair("GEMM", "SN", "oracle-static", scale=TINY,
                          mode_b="static-private")
    assert probe_specs_for(hetero) is None
    pair = RunSpec.pair("GEMM", "SN", "oracle-static", scale=TINY)
    assert probe_specs_for(pair) is not None


# ------------------------------------------------- scaled interval params
def test_scaled_policy_params_derive_from_scale():
    scaled = scaled_policy_params("hysteresis", 0.02)
    assert scaled["interval"] == max(200, round(1500 * 0.02 / 0.25))
    assert scaled["min_samples"] == max(16, round(128 * 0.02 / 0.25))
    # at or above the reference scale the defaults stand
    assert scaled_policy_params("hysteresis", 0.25) == {}
    assert scaled_policy_params("hysteresis", 1.0) == {}
    # explicit parameters always win
    assert scaled_policy_params("hysteresis", 0.02,
                                {"interval": 900})["interval"] == 900
    # non-interval policies pass through untouched
    assert scaled_policy_params("paper-adaptive", 0.02) == {}
    assert scaled_policy_params("shared", 0.02) == {}


def test_scaled_defaults_let_smoke_runs_transition():
    from repro.experiments import figx_policy_shootout as shootout

    cfg = RunSpec.single("VA", "shared", scale=TINY).cfg
    spec = shootout._column_spec("RN", "miss-rate-threshold", cfg, TINY)
    assert dict(spec.policy_params)["interval"] < 1500
    res = execute_spec(spec)
    assert res.transitions >= 1, (
        "scaled window parameters should let the threshold policy act "
        "at smoke scale")


# ------------------------------------------------------------------ bandit
def test_bandit_registered_with_schema():
    from repro.policy import available_policies, policy_class

    assert "bandit" in available_policies()
    schema = policy_class("bandit").param_schema()
    assert {"interval", "epsilon", "seed", "min_samples"} <= set(schema)


def test_bandit_is_deterministic_and_transitions():
    def one(seed):
        cfg = small_cfg()
        w = build("SN", total_accesses=20_000, num_ctas=160, max_kernels=1)
        return GPUSystem(cfg, w, policy="bandit",
                         policy_params={"interval": 800,
                                        "seed": seed}).run()

    first, second = one(17), one(17)
    assert first.to_dict() == second.to_dict()
    assert first.transitions >= 1  # it explored at least once
    assert any(r.startswith("bandit")
               for _, _, r in first.mode_history if r != "start")
    other_seed = one(23)
    assert other_seed.cycles > 0  # different seed still completes


def test_bandit_per_program_in_mix():
    system = hetero_system(policy_a="static-shared", policy_b="bandit",
                           params_b={"interval": 800, "seed": 3},
                           n=12_000)
    res = system.run()
    assert res.programs[1].policy == "bandit:interval=800,seed=3"
    ctrl = system.programs[1].controller
    assert ctrl is not None and ctrl.prog is system.programs[1]


# -------------------------------------------------------- mixed experiment
def test_mixed_policy_experiment_driver(tmp_path):
    from repro.experiments import figure_rows
    from repro.experiments import figx_mixed_policy as mixed
    from repro.report.trends import ERROR, evaluate_trends

    campaign = Campaign(cache_dir=str(tmp_path))
    rows = figure_rows(mixed, TINY, campaign)
    assert canonical_key(rows) == (
        "f7bc520d76e0fe188cef23b271e0dfc7571f0fd897be9d9c2a17794f839f91a4")
    assert rows[-1]["pair"] == "AVG"
    kinds = {r["kind"] for r in rows[:-1]}
    assert kinds == {"homogeneous", "heterogeneous"}
    for row in rows:
        for column in mixed.COLUMNS:
            assert row[f"{column}_stp"] > 0
    results = evaluate_trends(mixed.expected_trends(), rows)
    assert all(r.status != ERROR for r in results)


def test_mixed_policy_registered_in_figure_registry():
    from repro.experiments import FIGURE_MODULES, figure_module

    assert "mixed_policy" in FIGURE_MODULES
    module = figure_module("mixed_policy")
    assert module.SLUG == "mixed_policy"
    assert module.specs(scale=TINY)
