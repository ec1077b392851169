"""Hot-path benchmark subsystem: measurement, file format, regression gate."""

import json

import pytest

from repro.bench import (EVENT_ONLY, MODES, SCENARIOS, TIERS,
                         bench_scenario, compare_bench, load_bench,
                         run_bench, scenario_key, tier_speedups,
                         write_bench)
from repro.cli import main

TINY = 0.02  # smoke preset


def _payload(eps: float) -> dict:
    return {"wall_s": 1.0, "events": int(eps), "events_per_sec": eps,
            "cycles": 100.0}


def _all_keys():
    return [scenario_key(name, tier)
            for name, _, _ in SCENARIOS
            for tier in (("event",) if name in EVENT_ONLY else TIERS)]


def test_run_bench_schema_and_positive_throughput():
    data = run_bench(TINY, modes=("shared",))
    for tier in TIERS:
        row = data[scenario_key("shared", tier)]
        assert set(row) == {"tier", "wall_s", "events", "events_per_sec",
                            "cycles", "samples"}
        assert row["tier"] == tier
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["cycles"] > 0
        assert row["samples"] and all(s > 0 for s in row["samples"])
    assert data["_meta"]["scale"] == TINY


def test_run_bench_tiers_agree_on_simulation():
    # The tier changes how results are computed, never what they are.
    data = run_bench(TINY, modes=("adaptive",))
    event = data["adaptive"]
    batch = data["adaptive[batch]"]
    assert event["events"] == batch["events"]
    assert event["cycles"] == batch["cycles"]


def test_run_bench_includes_counters_scenario():
    data = run_bench(TINY, modes=("adaptive",))
    for tier in TIERS:
        assert scenario_key("adaptive+counters", tier) in data


def test_bench_scenario_records_median_of_samples():
    row = bench_scenario("VA", "shared", TINY, repeat=3)
    assert len(row["samples"]) == 3
    assert row["events_per_sec"] == sorted(row["samples"])[1]


def test_tier_speedups_pairs_scenarios():
    data = {"adaptive": _payload(100.0),
            "adaptive[batch]": _payload(250.0),
            "shared": _payload(100.0),  # no batch twin
            "_meta": {}}
    assert tier_speedups(data) == {"adaptive": 2.5}


def test_write_and_load_round_trip(tmp_path):
    path = str(tmp_path / "bench.json")
    data = {"shared": _payload(1000.0), "_meta": {"scale": 0.1}}
    write_bench(path, data)
    assert load_bench(path) == data


def test_compare_bench_passes_within_margin():
    base = {"shared": _payload(1000.0), "_meta": {}}
    cur = {"shared": _payload(750.0), "_meta": {}}
    assert compare_bench(cur, base, max_regress=0.30) == []


def test_compare_bench_flags_regression_beyond_margin():
    base = {"shared": _payload(1000.0)}
    cur = {"shared": _payload(650.0)}
    failures = compare_bench(cur, base, max_regress=0.30)
    assert len(failures) == 1
    assert "shared" in failures[0]


def test_compare_bench_flags_scenario_set_drift():
    base = {"shared": _payload(1000.0), "private": _payload(1000.0)}
    cur = {"shared": _payload(1000.0), "adaptive": _payload(1000.0)}
    failures = compare_bench(cur, base)
    assert any("private" in f for f in failures)   # dropped scenario
    assert any("adaptive" in f for f in failures)  # unbaselined scenario


def test_compare_bench_reads_pre_tier_records():
    # Old-schema rows (no tier/samples fields) must still gate cleanly.
    base = {"shared": _payload(1000.0)}
    cur = {"shared": bench_scenario("VA", "shared", TINY)}
    cur["shared"]["events_per_sec"] = 900.0
    assert compare_bench(cur, base, max_regress=0.30) == []


def test_cli_bench_writes_record(tmp_path, capsys):
    out = str(tmp_path / "BENCH_hotpath.json")
    rc = main(["bench", "--scale", "smoke", "--benchmark", "VA",
               "--out", out])
    assert rc == 0
    record = load_bench(out)
    for key in _all_keys():
        assert record[key]["events_per_sec"] > 0
    assert "wrote" in capsys.readouterr().out


def test_cli_bench_single_tier(tmp_path):
    out = str(tmp_path / "bench.json")
    rc = main(["bench", "--scale", "smoke", "--tier", "event", "--out", out])
    assert rc == 0
    record = load_bench(out)
    assert "adaptive" in record
    assert "adaptive[batch]" not in record


def test_cli_bench_tier_speedup_gate(tmp_path, capsys):
    out = str(tmp_path / "bench.json")
    # An impossible floor must fail; any real batch run is < 1000x.
    rc = main(["bench", "--scale", "smoke", "--out", out,
               "--min-tier-speedup", "1000"])
    assert rc == 1
    assert "tier speedup" in capsys.readouterr().err

    # The gate needs both tiers to have been timed.
    rc = main(["bench", "--scale", "smoke", "--tier", "event", "--out", out,
               "--min-tier-speedup", "1.0"])
    assert rc == 1


def test_cli_bench_gates_on_committed_baseline(tmp_path, capsys):
    # An impossible baseline must fail the gate; a trivial one must pass.
    out = str(tmp_path / "bench.json")
    impossible = str(tmp_path / "impossible.json")
    with open(impossible, "w", encoding="utf-8") as fh:
        json.dump({"shared": _payload(1e15)}, fh)
    rc = main(["bench", "--scale", "smoke", "--out", out,
               "--baseline", impossible])
    assert rc == 1

    trivial = str(tmp_path / "trivial.json")
    with open(trivial, "w", encoding="utf-8") as fh:
        json.dump({key: _payload(1.0) for key in _all_keys()}, fh)
    rc = main(["bench", "--scale", "smoke", "--out", out,
               "--baseline", trivial])
    assert rc == 0
