"""Consolidation subsystem: placements, arrivals, mix sampling, metrics,
and the run-level contracts the campaign layer builds on.

The two load-bearing pins live at the bottom: a two-tenant closed
consolidation run is *the same simulation* as the legacy pair path
(core counters equal), and an open-system run is a pure function of
``(spec, seed)`` — byte-identical ``to_dict()`` across repeats, and
across execution-tier configs (the batch tier declines).
"""

import json

import pytest

from repro.consolidate.arrivals import (arrival_times, available_arrivals,
                                        canonical_arrivals_spec,
                                        create_arrivals)
from repro.consolidate.metrics import (jains_fairness, latency_percentiles,
                                       slowdown, weighted_speedup)
from repro.consolidate.mixgen import sample_mix
from repro.consolidate.placement import (available_placements,
                                         canonical_placement_spec,
                                         cluster_split_boundaries,
                                         create_placement)
from repro.experiments.campaign import spec_from_mix
from repro.experiments.runner import (experiment_config, run_consolidation,
                                      run_pair)
from repro.workloads.catalog import ALL_ABBRS, CATEGORIES

TINY = 0.02


# -------------------------------------------------------------- placement
def test_every_placement_round_trips_through_the_spec_grammar():
    for name, cls in available_placements().items():
        policy = create_placement(name)
        assert type(policy) is cls
        assert policy.spec() == name, "defaults must render bare"
        assert create_placement(policy.spec()).params == policy.params


def test_canonical_placement_spec_elides_the_default():
    assert canonical_placement_spec(None) is None
    assert canonical_placement_spec("cluster-split") is None
    assert canonical_placement_spec("striped:phase=0") == "striped"
    assert canonical_placement_spec("striped:phase=1") == "striped:phase=1"
    assert canonical_placement_spec("contiguous") == "fill-first", \
        "aliases canonicalize to the registered name"
    with pytest.raises(ValueError, match="unknown placement"):
        canonical_placement_spec("checkerboard")


def test_cluster_split_reproduces_the_figure9_rule_for_two_tenants():
    cfg = experiment_config()
    spc = cfg.sms_per_cluster
    assert cluster_split_boundaries(spc, 2) == [0, spc // 2, spc]
    assignment = create_placement("cluster-split").assign(
        cfg.num_sms, spc, 2)
    for sm, tenant in enumerate(assignment):
        assert tenant == (0 if sm % spc < spc // 2 else 1), \
            f"SM {sm} diverges from the paper's half-cluster split"


def test_every_placement_covers_every_tenant():
    for name in available_placements():
        assignment = create_placement(name).assign(16, 4, 3)
        assert len(assignment) == 16
        assert set(assignment) == {0, 1, 2}, name


def test_placements_reject_impossible_geometry():
    with pytest.raises(ValueError, match="sms_per_cluster >= tenants"):
        create_placement("cluster-split").assign(16, 2, 3)
    with pytest.raises(ValueError, match="num_clusters >= tenants"):
        create_placement("dedicated-cluster").assign(8, 4, 3)
    with pytest.raises(ValueError, match="num_sms >= tenants"):
        create_placement("fill-first").assign(2, 1, 3)
    with pytest.raises(ValueError, match="no parameters"):
        create_placement("cluster-split:skew=2")


# --------------------------------------------------------------- arrivals
def test_arrival_times_are_seed_deterministic_and_validated():
    for name in available_arrivals():
        first = arrival_times(name, 6, seed=11)
        again = arrival_times(name, 6, seed=11)
        assert first == again, f"{name} is not a function of its seed"
        assert len(first) == 6
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:])), name


def test_open_processes_vary_with_seed_closed_does_not():
    assert arrival_times("closed", 4, seed=1) == [0.0] * 4
    assert arrival_times("closed", 4, seed=2) == [0.0] * 4
    a = arrival_times("poisson:gap=1000", 4, seed=1)
    b = arrival_times("poisson:gap=1000", 4, seed=2)
    assert a != b, "an open system must draw from the seed"


def test_bursty_admits_in_simultaneous_groups():
    times = arrival_times("bursty:burst=2,gap=5000", 5, seed=3)
    assert times[0] == times[1] == 0.0
    assert times[2] == times[3] > 0.0
    assert times[4] > times[3]


def test_canonical_arrivals_spec_elides_defaults():
    assert canonical_arrivals_spec(None) is None
    assert canonical_arrivals_spec("closed") is None
    assert canonical_arrivals_spec("poisson:gap=4000") == "poisson"
    assert canonical_arrivals_spec("poisson:gap=2000") == \
        "poisson:gap=2000.0", "floats render coerced — one canonical text"
    assert canonical_arrivals_spec("poisson:gap=2000.0") == \
        canonical_arrivals_spec("poisson:gap=2000")
    with pytest.raises(ValueError, match="unknown arrival process"):
        canonical_arrivals_spec("lunar")
    with pytest.raises(ValueError, match="no parameters"):
        create_arrivals("closed:gap=1")


# ----------------------------------------------------------------- mixgen
def test_sample_mix_is_deterministic_and_category_stratified():
    mix = sample_mix(4, seed=7)
    assert mix == sample_mix(4, seed=7)
    assert all(abbr in ALL_ABBRS for abbr in mix)
    # The first len(CATEGORIES) draws visit distinct categories.
    category_of = {abbr: cat for cat, abbrs in CATEGORIES.items()
                   for abbr in abbrs}
    n_cats = len(CATEGORIES)
    wide = sample_mix(n_cats, seed=7)
    assert len({category_of[abbr] for abbr in wide}) == n_cats


def test_sample_mix_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n_tenants"):
        sample_mix(0, seed=1)
    with pytest.raises(ValueError, match="unknown categories"):
        sample_mix(2, seed=1, categories=["imaginary"])
    with pytest.raises(ValueError, match="no categories"):
        sample_mix(2, seed=1, categories=[])


# ---------------------------------------------------------------- metrics
def test_latency_percentiles_use_nearest_rank():
    samples = list(range(1, 101))
    out = latency_percentiles(samples)
    assert out == {"count": 100.0, "p50": 50, "p95": 95, "p99": 99}
    tiny = latency_percentiles([7.0])
    assert tiny == {"count": 1.0, "p50": 7.0, "p95": 7.0, "p99": 7.0}
    empty = latency_percentiles([])
    assert empty == {"count": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_fairness_and_speedup_metrics():
    assert jains_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert jains_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert jains_fairness([0.0, 0.0]) == 1.0  # equally starved is fair
    assert weighted_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)
    assert slowdown(solo_ipc=2.0, shared_ipc=1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="non-negative"):
        jains_fairness([1.0, -0.5])
    with pytest.raises(ValueError, match="solo"):
        weighted_speedup([1.0], [0.0])


# ------------------------------------------------------------ golden pins
#: Counters that must survive the pair → consolidation generalization.
CORE_COUNTERS = ("cycles", "instructions", "ipc", "llc_accesses",
                 "llc_hits", "llc_misses", "llc_miss_rate", "dram_reads",
                 "dram_writes", "dram_bytes")


def test_two_tenant_closed_run_matches_the_legacy_pair_path():
    """A closed two-tenant consolidation run is the legacy Figure 15 pair
    simulation with latency bookkeeping riding along — every core counter
    and per-program result must be identical."""
    legacy = run_pair("VA", "GEMM", "shared", scale=TINY, max_kernels=1)
    consolidated = run_consolidation(
        [("VA", "shared", None), ("GEMM", "shared", None)],
        scale=TINY, max_kernels=1)
    for name in CORE_COUNTERS:
        assert getattr(consolidated, name) == getattr(legacy, name), name
    for mine, theirs in zip(consolidated.programs, legacy.programs):
        assert mine.name == theirs.name
        assert mine.instructions == theirs.instructions
        assert mine.ipc == theirs.ipc
        assert mine.admitted_at == 0.0
        assert mine.latency is not None


def test_canonical_default_spec_collapses_to_the_legacy_key():
    """Spelling out the defaults (closed arrivals, cluster-split, any
    seed) must hash — and serialize — exactly like the legacy pair spec,
    or every cached pair result would be orphaned."""
    legacy = spec_from_mix("GEMM+SN", scale=TINY)
    spelled = spec_from_mix("GEMM+SN", scale=TINY, arrivals="closed",
                            placement="cluster-split", seed=9)
    assert spelled == legacy
    assert spelled.cache_key() == legacy.cache_key()
    payload = spelled.to_dict()
    for key in ("extra", "arrivals", "placement", "seed"):
        assert key not in payload, f"default {key} must be elided"


TENANTS_3 = (("VA", "shared", None), ("GEMM", "shared", None),
             ("SN", "shared", None))


def test_open_system_run_is_byte_identical_across_repeats():
    kwargs = dict(scale=TINY, max_kernels=1,
                  arrivals="poisson:gap=1500", seed=4)
    first = run_consolidation(TENANTS_3, **kwargs).to_dict()
    again = run_consolidation(TENANTS_3, **kwargs).to_dict()
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(again, sort_keys=True)
    reseeded = run_consolidation(TENANTS_3, scale=TINY, max_kernels=1,
                                 arrivals="poisson:gap=1500", seed=5)
    assert [p.admitted_at for p in reseeded.programs] != \
        [p["admitted_at"] for p in first["programs"]], \
        "the seed must actually steer admissions"


def test_accelerated_tier_configs_decline_and_match_the_event_tier():
    """Latency tracking forces the event tier: a consolidation run under
    a batch config must produce the event tier's exact bytes (the
    installer declines rather than mis-simulate)."""
    kwargs = dict(scale=TINY, max_kernels=1,
                  arrivals="poisson:gap=1500", seed=4)
    event = run_consolidation(TENANTS_3, cfg=experiment_config(), **kwargs)
    cfg = experiment_config().replace(tier="batch")
    twin = run_consolidation(TENANTS_3, cfg=cfg, **kwargs)
    assert json.dumps(twin.to_dict(), sort_keys=True) == \
        json.dumps(event.to_dict(), sort_keys=True)


def test_per_tenant_counters_are_isolated_at_n3():
    result = run_consolidation(TENANTS_3, scale=TINY, max_kernels=1,
                               arrivals="poisson:gap=1500", seed=4)
    assert [p.name for p in result.programs] == ["VA", "GEMM", "SN"]
    admitted = [p.admitted_at for p in result.programs]
    assert admitted[0] == 0.0
    assert all(b >= a for a, b in zip(admitted, admitted[1:]))
    total = 0.0
    for program in result.programs:
        assert program.instructions > 0, program.name
        assert program.ipc > 0, program.name
        assert set(program.latency) == {"count", "p50", "p95", "p99"}
        assert program.latency["count"] > 0
        assert (program.latency["p50"] <= program.latency["p95"]
                <= program.latency["p99"])
        total += program.instructions
    assert total == result.instructions
    # The occupancy timeline climbs one admission at a time to a full
    # house, then drains back to zero as tenants finish.
    counts = [active for _, active in result.occupancy]
    assert counts[:3] == [1, 2, 3], "admissions, in arrival order"
    assert [when for when, _ in result.occupancy[:3]] == admitted
    assert counts[-1] == 0, "everyone eventually departs"
    assert all(abs(b - a) == 1 for a, b in zip(counts, counts[1:])), \
        "occupancy moves one tenant at a time"
