"""Smoke tests for the experiment drivers at tiny scale.

These verify the drivers' plumbing (row shapes, summary rows, config
sweeps) and the regenerated tables' values.  The paper-shape claims live
in each figure's ``expected_trends()``, which ``repro report`` evaluates;
CI gates every paper figure at ``--scale paper``.
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
    figure_rows,
    tables,
)
from repro.config import canonical_key
from repro.experiments.campaign import Campaign, RunSpec, execute_spec
from repro.experiments.runner import (
    DEFAULT_ACCESSES,
    experiment_config,
    print_rows,
)

TINY = 0.05

#: ``canonical_key`` of the rows each figure subset below produces: any
#: change to a driver's arithmetic, or to which runs feed which row, shows.
ROW_DIGESTS = {
    "fig02/neutral": "9def99460e4764b05759e9d4302a10c666b74993e43fdb29d3e4c835849b6660",
    "fig03/private": "35c3e6d6e0311c29ce0a3bdbcfb64197ba59b43d1586f3ba46d8614a53e76e4d",
    "fig07/RN": "247ba778961cacf1b6a712026fdbd566d038d79213b8ffaae135d080996aae60",
    "fig11/private": "47bdff1b52a9ec9124ac4dd718712261726103761731c420f16137cf6f548946",
    "fig12": "65964f7e195daacb74a54864b5e07b1766c680e9e38d81bcddb758ad734fef0d",
    "fig13": "624d71f55f3903f89a95e8a6550f93e438a7fd719a17ef59fe312c5f3976e676",
    "fig14": "e699a168f0652433ea846b71f279d5b341b5832d4f35aedfa474528f2d8aa72d",
    "fig15/GEMM+AN": "143ecff0ce644d2eae7c0ec19aa7a1cb556ab0c062d29781787eae702dc98273",
    "fig16/SN/address_mapping": "5d2351fb6b9c69e1f40f18df37b6a27dafbf3ab9b5e226fedf1d6c6545a9dc11",
    "fig16/SN/sm_count": "46d89e8bf7f41d21c8b022d22d4dd5adb1ea311187aa5bd85ccd26780b59999f",
}


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


def test_fig2_rows_have_hm_per_category(figure_subset_rows):
    rows = figure_subset_rows(fig02_shared_vs_private, TINY,
                              lambda cell: cell[0] == "neutral")
    assert canonical_key(rows) == ROW_DIGESTS["fig02/neutral"]
    assert rows[-1]["benchmark"] == "HM"
    assert not math.isnan(rows[-1]["private_norm"])
    assert len(rows) == 7  # 6 benchmarks + HM


def test_fig3_rows_fractions_sum(figure_subset_rows):
    rows = figure_subset_rows(fig03_locality, TINY,
                              lambda cell: cell[0] == "private")
    assert canonical_key(rows) == ROW_DIGESTS["fig03/private"]
    for r in rows:
        total = sum(r[b] for b in fig03_locality.BUCKETS)
        assert total == pytest.approx(1.0, abs=1e-6) or total == 0.0


def test_fig7_rows_cover_pairings(figure_subset_rows):
    rows = figure_subset_rows(fig07_noc_design_space, TINY,
                              lambda cell: cell[2] == "RN")
    assert canonical_key(rows) == ROW_DIGESTS["fig07/RN"]
    assert len(rows) == 8
    assert rows[0]["design"] == "Full Xbar"
    assert rows[0]["norm_ipc"] == pytest.approx(1.0)
    assert all(r["area_mm2"] > 0 for r in rows)


def test_fig11_rows_modes(figure_subset_rows):
    rows = figure_subset_rows(fig11_adaptive_performance, TINY,
                              lambda cell: cell[0] == "private")
    assert canonical_key(rows) == ROW_DIGESTS["fig11/private"]
    hm = rows[-1]
    assert hm["benchmark"] == "HM"
    for m in ("shared", "private", "adaptive"):
        assert f"{m}_norm" in hm


def test_fig12_rows():
    rows = figure_rows(fig12_response_rate, TINY, Campaign())
    assert canonical_key(rows) == ROW_DIGESTS["fig12"]
    assert rows[-1]["benchmark"] == "HM(ratio)"
    assert rows[-1]["shared_resp"] == pytest.approx(1.0)


def test_fig13_rows():
    rows = figure_rows(fig13_miss_rate, TINY, Campaign())
    assert canonical_key(rows) == ROW_DIGESTS["fig13"]
    assert rows[-1]["benchmark"] == "AVG"
    assert 0.0 <= rows[-1]["shared_miss"] <= 1.0


def test_fig14_rows():
    rows = figure_rows(fig14_noc_energy, TINY, Campaign())
    assert canonical_key(rows) == ROW_DIGESTS["fig14"]
    assert rows[-1]["benchmark"] == "AVG"
    body = [r for r in rows if r["benchmark"] != "AVG"]
    assert len(body) == 11  # 5 private-friendly + 6 neutral
    assert all(r["noc_norm"] > 0 for r in body)


def test_fig15_rows(figure_subset_rows):
    rows = figure_subset_rows(fig15_multiprogram, TINY,
                              lambda cell: set(cell[1:3]) <= {"GEMM", "AN"})
    assert canonical_key(rows) == ROW_DIGESTS["fig15/GEMM+AN"]
    assert rows[-1]["pair"] == "AVG"
    assert rows[0]["shared_stp"] > 0


def test_fig16_group_filter(figure_subset_rows):
    rows = figure_subset_rows(
        fig16_sensitivity, TINY,
        lambda cell: cell[0] == "address_mapping" and cell[2] == "SN")
    assert canonical_key(rows) == ROW_DIGESTS["fig16/SN/address_mapping"]
    assert {r["point"] for r in rows} == {"PAE", "Hynix"}
    assert all(r["adaptive_over_shared"] > 0 for r in rows)


def test_fig16_sm_scaling_configs_are_valid(figure_subset_rows):
    rows = figure_subset_rows(
        fig16_sensitivity, TINY,
        lambda cell: cell[0] == "sm_count" and cell[2] == "SN")
    assert canonical_key(rows) == ROW_DIGESTS["fig16/SN/sm_count"]
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
