"""The pluggable LLC-policy layer: registry, parameter schemas, the ported
triad's equivalence, the new policies' behavior, and the campaign/CLI
threading."""

import pytest

from repro.config import AdaptiveConfig, GPUConfig, PolicyConfig
from repro.experiments.campaign import CACHE_VERSION, Campaign, RunSpec
from repro.gpu.system import GPUSystem
from repro.policy import (
    LLCPolicy,
    available_policies,
    canonical_policy_name,
    create_policy,
    parse_policy_spec,
    policy_class,
)
from repro.workloads.catalog import build

TINY = 0.02


def small_cfg(**kw):
    cfg = GPUConfig.baseline().replace(
        adaptive=AdaptiveConfig(epoch_cycles=20_000, profile_cycles=800,
                                atd_sampled_sets=48, miss_rate_margin=0.05))
    return cfg.replace(**kw) if kw else cfg


def run(abbr="VA", policy="shared", n=4000, policy_params=None, **cfg_kw):
    cfg = small_cfg(**cfg_kw)
    w = build(abbr, total_accesses=n, num_ctas=160, max_kernels=1)
    return GPUSystem(cfg, w, policy=policy,
                     policy_params=policy_params).run()


# ---------------------------------------------------------------- registry
def test_registry_has_at_least_six_policies():
    registry = available_policies()
    assert len(registry) >= 6
    assert {"static-shared", "static-private", "paper-adaptive",
            "miss-rate-threshold", "hysteresis",
            "oracle-static"} <= set(registry)


def test_triad_aliases_resolve():
    assert canonical_policy_name("shared") == "static-shared"
    assert canonical_policy_name("private") == "static-private"
    assert canonical_policy_name("adaptive") == "paper-adaptive"
    assert policy_class("adaptive") is policy_class("paper-adaptive")


def test_unknown_policy_name_raises():
    with pytest.raises(ValueError, match="unknown LLC policy"):
        canonical_policy_name("magic")
    with pytest.raises(ValueError, match="unknown LLC policy"):
        create_policy("magic")


def test_param_schema_validation():
    with pytest.raises(ValueError, match="no parameters"):
        create_policy("hysteresis", {"bogus": 1})
    with pytest.raises(ValueError, match="expects int"):
        create_policy("hysteresis", {"dwell": 1.5})
    with pytest.raises(ValueError, match="must be one of"):
        create_policy("oracle-static", {"metric": "vibes"})
    # int widens to float where the schema says float
    policy = create_policy("hysteresis", {"low": 0})
    assert policy.params["low"] == 0.0
    assert isinstance(policy.params["low"], float)
    # defaults fill in at construction
    assert policy.params["dwell"] == 2


def test_parse_policy_spec_grammar():
    assert parse_policy_spec("hysteresis") == ("hysteresis", {})
    name, params = parse_policy_spec("hysteresis:dwell=3,low=0.3")
    assert name == "hysteresis"
    assert params == {"dwell": 3, "low": 0.3}
    # bare words fall back to strings
    assert parse_policy_spec("oracle-static:metric=ipc")[1] == \
        {"metric": "ipc"}
    with pytest.raises(ValueError, match="key=value"):
        parse_policy_spec("hysteresis:dwell")
    with pytest.raises(ValueError, match="no name"):
        parse_policy_spec(":dwell=3")


# ------------------------------------------------- GPUSystem threading
def test_canonical_names_match_legacy_alias_results():
    for legacy, canonical in (("shared", "static-shared"),
                              ("private", "static-private")):
        old = run("SN", legacy, n=3000)
        new = run("SN", canonical, n=3000)
        assert new.mode == canonical
        assert {**new.to_dict(), "mode": legacy} == old.to_dict()


def test_policy_kwarg_names_the_run_and_mode_kwarg_is_gone():
    cfg = small_cfg()
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    system = GPUSystem(cfg, w, policy="shared")
    assert system.mode_name == "shared"
    with pytest.raises(TypeError):
        GPUSystem(cfg, w, mode="shared")


def test_policy_instance_and_config_accepted():
    cfg = small_cfg()
    w = build("VA", total_accesses=2000, num_ctas=80, max_kernels=1)
    instance = create_policy("hysteresis", {"dwell": 1})
    system = GPUSystem(cfg, w, policy=instance)
    assert system.mode_name == "hysteresis"
    assert system.policy is instance
    with pytest.raises(ValueError, match="policy_params cannot"):
        GPUSystem(cfg, w, policy=create_policy("hysteresis"),
                  policy_params={"dwell": 1})
    pc = PolicyConfig.from_spec("miss-rate-threshold:interval=900")
    system = GPUSystem(cfg, w, policy=pc)
    assert system.policy.params["interval"] == 900
    with pytest.raises(TypeError, match="policy must be"):
        GPUSystem(cfg, w, policy=42)


def test_custom_policy_subclass_runs():
    class AlwaysPrivate(LLCPolicy):
        NAME = "test-always-private"

        def setup(self):
            from repro.core.modes import LLCMode
            for prog in self.system.programs:
                prog.static_mode = LLCMode.PRIVATE
            for sl in self.system.llc_slices:
                sl.set_write_policy(write_through=True)
            self.system.update_bypass(0.0)

    cfg = small_cfg()
    w = build("SN", total_accesses=3000, num_ctas=160, max_kernels=1)
    res = GPUSystem(cfg, w, policy=AlwaysPrivate()).run()
    baseline = run("SN", "private", n=3000)
    assert res.mode == "test-always-private"
    assert res.ipc == baseline.ipc
    assert res.cycles == baseline.cycles


# ------------------------------------------------------- new policies
def test_threshold_policy_transitions_on_private_friendly():
    # SN is private-friendly: high locality, low shared miss rate; the
    # threshold controller should see it and go private at least once.
    res = run("SN", "miss-rate-threshold", n=30_000,
              policy_params={"interval": 800, "go_private_below": 0.5})
    assert res.transitions >= 1
    assert res.time_in_private > 0
    assert res.stall_cycles > 0
    assert res.mode_history[0][2] == "start"
    assert any(reason == "threshold_low"
               for _, _, reason in res.mode_history)
    assert res.decisions  # every transition records its Decision


def test_threshold_policy_never_transitions_with_impossible_bounds():
    res = run("SN", "miss-rate-threshold", n=10_000,
              policy_params={"interval": 800, "go_private_below": -1.0})
    assert res.transitions == 0
    assert res.time_in_private == 0.0


def test_hysteresis_dwell_damps_transitions():
    params = {"interval": 800, "low": 0.5, "high": 0.6}
    eager = run("SN", "hysteresis", n=30_000,
                policy_params={**params, "dwell": 1})
    patient = run("SN", "hysteresis", n=30_000,
                  policy_params={**params, "dwell": 50})
    assert patient.transitions <= eager.transitions
    assert patient.transitions == 0  # 50 windows never fit in this run
    threshold = run("SN", "miss-rate-threshold", n=30_000,
                    policy_params={"interval": 800, "go_private_below": 0.5,
                                   "revert_above": 0.6})
    assert eager.transitions <= threshold.transitions + 1  # dwell=1 ~ bare


def test_oracle_static_picks_the_better_static():
    for abbr in ("SN", "GEMM"):
        shared = run(abbr, "static-shared", n=8000)
        private = run(abbr, "static-private", n=8000)
        oracle = run(abbr, "oracle-static", n=8000)
        best = max(shared, private, key=lambda r: r.ipc)
        assert oracle.ipc == best.ipc
        assert oracle.cycles == best.cycles
        assert oracle.llc_miss_rate == best.llc_miss_rate
        want_private = private.ipc > shared.ipc
        assert (oracle.time_in_private == oracle.cycles) == want_private
        (_, decision), = oracle.decisions
        assert decision.rule == ("oracle_private" if want_private
                                 else "oracle_shared")
        assert decision.shared_bw == shared.ipc
        assert decision.private_bw == private.ipc


def test_interval_policies_handle_multiprogram():
    from repro.workloads.multiprogram import make_pair

    cfg = small_cfg()
    mp = make_pair("GEMM", "RN", total_accesses=8000, num_ctas=160,
                   max_kernels=1)
    res = GPUSystem(cfg, mp, policy="hysteresis",
                    policy_params={"dwell": 1, "interval": 800}).run()
    assert len(res.programs) == 2
    assert res.cycles > 0


# ------------------------------------------------------ campaign keys
def test_policy_params_join_the_cache_key():
    base = RunSpec.single("VA", "hysteresis", scale=TINY)
    tuned = RunSpec.single("VA", "hysteresis", scale=TINY,
                           policy_params={"dwell": 3})
    assert base.cache_key() != tuned.cache_key()
    # equivalent parameterizations canonicalize to one key
    also_tuned = RunSpec.single("VA", "hysteresis:dwell=3", scale=TINY)
    assert tuned.cache_key() == also_tuned.cache_key()
    int_vs_float = RunSpec.single("VA", "hysteresis", scale=TINY,
                                  policy_params={"low": 0})
    float_form = RunSpec.single("VA", "hysteresis", scale=TINY,
                                policy_params={"low": 0.0})
    assert int_vs_float.cache_key() == float_form.cache_key()
    assert "dwell=3" in tuned.label()


def test_runspec_policy_round_trips_through_json():
    import json

    spec = RunSpec.single("VA", "hysteresis", scale=TINY,
                          policy_params={"dwell": 3, "low": 0.3})
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.cache_key() == spec.cache_key()
    # pre-policy records (no policy_params key) still load
    old = spec.to_dict()
    del old["policy_params"]
    legacy = RunSpec.from_dict(old)
    assert legacy.policy_params == ()


def test_cache_version_bumped_for_policy_schema():
    # Pre-policy cached JSON (version 1) must be invalidated, not reused.
    assert CACHE_VERSION >= 2


def test_campaign_executes_parameterized_policies(tmp_path):
    campaign = Campaign(cache_dir=str(tmp_path))
    spec = RunSpec.single("VA", "miss-rate-threshold", scale=TINY,
                          policy_params={"interval": 700})
    first = campaign.result(spec)
    warm = Campaign(cache_dir=str(tmp_path))
    again = warm.result(spec)
    assert warm.cache_hits == 1 and warm.executed == 0
    assert again.to_dict() == first.to_dict()


# ------------------------------------------------------------- CLI
def test_cli_policy_list_shows_registry(capsys):
    from repro.cli import main

    assert main(["policy", "list"]) == 0
    out = capsys.readouterr().out
    for name in available_policies():
        assert name in out
    assert "aliases" in out


def test_cli_policy_show_and_unknown(capsys):
    from repro.cli import main

    assert main(["policy", "show", "hysteresis"]) == 0
    out = capsys.readouterr().out
    assert "dwell" in out and "default" in out
    assert main(["policy", "show", "nope"]) == 2
    assert "unknown LLC policy" in capsys.readouterr().err


def test_cli_run_accepts_policy_spec(capsys):
    from repro.cli import main

    assert main(["run", "VA", "--policy", "miss-rate-threshold:interval=900",
                 "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "miss-rate-threshold:interval=900" in out


def test_cli_run_rejects_bad_policy_spec():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "VA", "--policy", "nope"])
    with pytest.raises(SystemExit):
        main(["run", "VA", "--policy", "hysteresis:bogus=1"])


def test_cli_run_rejects_policy_plus_mode(capsys):
    from repro.cli import main

    # --policy is the only spelling: the removed --mode alias is an
    # unknown argument, alone or beside --policy.
    with pytest.raises(SystemExit):
        main(["run", "VA", "--policy", "hysteresis", "--mode", "shared"])
    assert "--mode" in capsys.readouterr().err


def test_cli_sweep_accepts_repeatable_policies(capsys):
    from repro.cli import main

    assert main(["sweep", "--benchmarks", "VA",
                 "--policy", "static-shared",
                 "--policy", "hysteresis:dwell=1,interval=800",
                 "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "hysteresis:dwell=1,interval=800" in out
    assert "static-shared" in out


def test_cli_sweep_modes_accept_any_registered_name(capsys):
    from repro.cli import main

    assert main(["sweep", "--benchmarks", "VA",
                 "--modes", "shared,miss-rate-threshold",
                 "--scale", str(TINY)]) == 0
    assert "miss-rate-threshold" in capsys.readouterr().out
    assert main(["sweep", "--benchmarks", "VA", "--modes", "nope"]) == 2


# ------------------------------------------------------------- shootout
def test_policy_shootout_driver(tmp_path):
    from repro.experiments import figx_policy_shootout as shootout
    from repro.report.trends import ERROR, evaluate_trends

    categories = {"shared": ["GEMM"], "private": ["SN"]}
    campaign = Campaign(cache_dir=str(tmp_path))
    rows = shootout.run(scale=TINY, categories=categories,
                        campaign=campaign)
    assert [r["benchmark"] for r in rows] == ["GEMM", "SN", "GM"]
    for row in rows:
        for policy in shootout.POLICIES:
            assert row[f"{policy}_norm"] > 0
    # oracle == best static, per construction and determinism
    for row in rows[:-1]:
        best = max(row["static-shared_norm"], row["static-private_norm"])
        assert row["oracle-static_norm"] == pytest.approx(best, abs=1e-12)
    # trend checks must evaluate (PASS or WARN), never crash
    results = evaluate_trends(shootout.expected_trends(), rows)
    assert all(r.status != ERROR for r in results)


def test_policy_shootout_triad_specs_dedupe_with_paper_figures():
    # The shootout declares its static/adaptive columns with the same
    # legacy spellings fig02/fig11 use, so one `repro report` campaign
    # collapses them instead of simulating byte-identical runs twice.
    from repro.experiments import figx_policy_shootout as shootout
    from repro.experiments import fig11_adaptive_performance as fig11

    fig11_keys = {s.cache_key() for s in fig11.specs(scale=TINY)}
    shootout_keys = [s.cache_key() for s in shootout.specs(scale=TINY)]
    shared = fig11_keys & set(shootout_keys)
    # 6 shootout benchmarks x the 3 triad columns all collapse into fig11.
    assert len(shared) == 6 * 3


def test_policy_shootout_registered_in_figure_registry():
    from repro.experiments import FIGURE_MODULES, figure_module, \
        figure_sort_key

    assert "policy_shootout" in FIGURE_MODULES
    ordering = sorted(FIGURE_MODULES, key=figure_sort_key)
    assert ordering[-1] == "policy_shootout"  # numerics first, names last
    module = figure_module("policy_shootout")
    assert module.SLUG == "policy_shootout"
    assert module.specs(scale=TINY)
