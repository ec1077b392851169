"""Smoke tests for the experiment drivers at tiny scale.

These verify the drivers' plumbing (row shapes, summary rows, config
sweeps) and the regenerated tables' values.  The paper-shape claims live
in each figure's ``expected_trends()``, which ``repro report`` evaluates;
CI gates the headline figures at ``--scale paper``.
"""

import math

import pytest

from repro.config import NoCConfig
from repro.experiments import (
    fig02_shared_vs_private,
    fig03_locality,
    fig07_noc_design_space,
    fig11_adaptive_performance,
    fig12_response_rate,
    fig13_miss_rate,
    fig14_noc_energy,
    fig15_multiprogram,
    fig16_sensitivity,
    tables,
)
from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import (
    DEFAULT_ACCESSES,
    experiment_config,
    print_rows,
)

TINY = 0.05


def test_runner_experiment_config_overrides():
    cfg = experiment_config(num_sms=40, num_clusters=4, llc_slices_per_mc=4)
    assert cfg.num_sms == 40
    cfg.validate()
    assert cfg.adaptive.atd_sampled_sets == 48


def test_runner_accesses_by_category():
    assert DEFAULT_ACCESSES["neutral"] > DEFAULT_ACCESSES["shared"]


def test_run_benchmark_tiny():
    res = execute_spec(RunSpec.single("VA", "shared", scale=TINY))
    assert res.ipc > 0


def test_run_pair_tiny():
    res = execute_spec(RunSpec.pair("GEMM", "AN", "shared", scale=TINY))
    assert len(res.programs) == 2


def test_print_rows_formats(capsys):
    print_rows([{"a": 1.23456, "b": "x"}])
    out = capsys.readouterr().out
    assert "1.235" in out
    print_rows([])
    assert "(no rows)" in capsys.readouterr().out


def test_fig2_rows_have_hm_per_category():
    rows = fig02_shared_vs_private.run(scale=TINY, categories=["neutral"])
    assert rows[-1]["benchmark"] == "HM"
    assert not math.isnan(rows[-1]["private_norm"])
    assert len(rows) == 7  # 6 benchmarks + HM


def test_fig3_rows_fractions_sum():
    rows = fig03_locality.run(scale=TINY, categories=["private"])
    for r in rows:
        total = sum(r[b] for b in fig03_locality.BUCKETS)
        assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0


def test_fig7_rows_cover_pairings():
    rows = fig07_noc_design_space.run(scale=TINY, workloads=["VA"])
    assert len(rows) == 8
    assert rows[0]["design"] == "Full Xbar"
    assert rows[0]["norm_ipc"] == pytest.approx(1.0)
    assert all(r["area_mm2"] > 0 for r in rows)


def test_fig11_rows_modes():
    rows = fig11_adaptive_performance.run(scale=TINY, categories=["private"])
    hm = rows[-1]
    assert hm["benchmark"] == "HM"
    for m in ("shared", "private", "adaptive"):
        assert f"{m}_norm" in hm


def test_fig12_rows():
    rows = fig12_response_rate.run(scale=TINY)
    assert rows[-1]["benchmark"] == "HM(ratio)"
    assert rows[-1]["shared_resp"] == pytest.approx(1.0)


def test_fig13_rows():
    rows = fig13_miss_rate.run(scale=TINY)
    assert rows[-1]["benchmark"] == "AVG"
    assert 0.0 <= rows[-1]["shared_miss"] <= 1.0


def test_fig14_rows():
    rows = fig14_noc_energy.run(scale=TINY)
    assert rows[-1]["benchmark"] == "AVG"
    body = [r for r in rows if r["benchmark"] != "AVG"]
    assert len(body) == 11  # 5 private-friendly + 6 neutral
    assert all(r["noc_norm"] > 0 for r in body)


def test_fig15_rows():
    rows = fig15_multiprogram.run(scale=TINY, pairs=[("GEMM", "AN")])
    assert rows[-1]["pair"] == "AVG"
    assert rows[0]["shared_stp"] > 0


def test_fig16_group_filter():
    rows = fig16_sensitivity.run(scale=TINY, workloads=["SN"],
                                 groups=["address_mapping"])
    assert {r["point"] for r in rows} == {"PAE", "Hynix"}
    assert all(r["adaptive_over_shared"] > 0 for r in rows)


def test_fig16_sm_scaling_configs_are_valid():
    rows = fig16_sensitivity.run(scale=TINY, workloads=["SN"],
                                 groups=["sm_count"])
    assert {r["point"] for r in rows} == {"40 SMs", "80 SMs", "160 SMs"}


def test_tables_shapes():
    t1 = tables.table1_rows()
    t2 = tables.table2_rows()
    assert len(t1) == 13
    assert len(t2) == 17
    assert {r["llc_class"] for r in t2} == {"shared", "private", "neutral"}
    values = {r["parameter"]: r["value"] for r in t1}
    assert values["Streaming Multiprocessors"] == "80 SMs, 1400 MHz"
    assert "6 MB" in values["LLC"]
    assert "900 GB/s" in values["DRAM Bandwidth"]
    by_abbr = {r["abbr"]: r for r in t2}
    assert by_abbr["LUD"]["shared_mb"] == 33.4
    assert by_abbr["3DC"]["kernels"] == 48
    assert by_abbr["AN"]["llc_class"] == "private"
