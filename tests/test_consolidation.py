"""Consolidation subsystem: placements, arrivals, mix sampling, metrics,
and the run-level contracts the campaign layer builds on.

The load-bearing pins live at the bottom: a two-tenant closed
consolidation run is *the same simulation* as the legacy pair path
(core counters equal), an open-system run is a pure function of
``(spec, seed)`` — byte-identical ``to_dict()`` across repeats — and the
batch tier installs on consolidation runs and reproduces the event
tier's bytes, on pinned scenarios and on a seeded differential fuzz.
"""

import itertools
import json
import random

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
from repro.experiments.campaign import (RunSpec, execute_spec,
                                        spec_from_mix, spec_system)
from repro.experiments.runner import _mix_accesses, experiment_config
from repro.gpu.system import GPUSystem
from repro.policy import available_policies
from repro.scenario import ProgramSpec, Scenario
from repro.workloads.catalog import ALL_ABBRS, CATEGORIES
from repro.workloads.multiprogram import make_mix

TINY = 0.02


def consolidation_spec(tenants, cfg=None, **kwargs) -> RunSpec:
    """The spec of a ``(benchmark, policy, params)`` tenant list at
    ``TINY`` scale, one kernel per tenant."""
    (abbr_a, mode_a, params_a), (abbr_b, mode_b, params_b), *extra = tenants
    return RunSpec.pair(abbr_a, abbr_b, mode_a, cfg, scale=TINY,
                        policy_params=params_a, mode_b=mode_b,
                        policy_params_b=params_b, extra=tuple(extra),
                        **kwargs)


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
def test_arrival_times_are_seed_deterministic_and_validated(monkeypatch):
    for name in available_arrivals():
        first = arrival_times(name, 6, seed=11)
        again = arrival_times(name, 6, seed=11)
        assert first == again, f"{name} is not a function of its seed"
        assert len(first) == 6
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:])), name
    # every comparison with NaN is false, so the nondecreasing check
    # alone would pass a NaN admission time
    from repro.consolidate.arrivals import PoissonArrivals

    monkeypatch.setattr(PoissonArrivals, "times",
                        lambda self, n, rng: [0.0, float("nan"), 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        arrival_times("poisson", 3, seed=0)


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
    for bad in ("poisson:gap=-5", "poisson:gap=0", "diurnal:gap=0",
                "diurnal:period=-1", "diurnal:peak=0.5", "bursty:burst=0",
                "bursty:gap=-1", "poisson:gap=NaN", "poisson:gap=Infinity",
                "diurnal:peak=Infinity", "bursty:gap=-Infinity"):
        with pytest.raises(ValueError, match="must be"):
            create_arrivals(bad)
    # a NaN gap schedules admissions at NaN cycles, a run that never
    # ends; the CLI rejects it at parse time
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "--mix", "GEMM+SN+VA", "--arrivals", "poisson:gap=NaN",
              "--scale", str(TINY)])
    assert exc.value.code == 2


def test_overflowing_admission_times_rejected_where_the_spec_is_built(
        capsys):
    """A finite gap can still overflow the admission clock: the spec holds
    the tenant count and the seed, so it is rejected at construction and
    the CLI answers with one error line and exit status 2."""
    with pytest.raises(ValueError, match="non-finite admission times"):
        spec_from_mix("GEMM+SN+VA", scale=TINY,
                      arrivals="poisson:gap=1e308")
    from repro.cli import main

    assert main(["run", "--mix", "GEMM+SN+VA", "--arrivals",
                 "poisson:gap=1e308", "--scale", str(TINY)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


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
    and per-program result must be identical.  No RunSpec spells that run
    (it canonicalizes to the pair), so it is built by hand from the
    pair's own traces."""
    cfg = experiment_config()
    legacy = execute_spec(RunSpec.pair("VA", "GEMM", "shared", cfg,
                                       scale=TINY, max_kernels=1))
    mp = make_mix(("VA", "GEMM"), total_accesses=_mix_accesses(TINY),
                  num_ctas=2 * cfg.num_sms, max_kernels=1)
    consolidated = GPUSystem(cfg, Scenario(
        [ProgramSpec(wl, "shared") for wl in mp.programs],
        arrival_times=arrival_times(None, 2, 0), track_latency=True)).run()
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
    spec = consolidation_spec(TENANTS_3, arrivals="poisson:gap=1500",
                              seed=4)
    first = execute_spec(spec).to_dict()
    again = execute_spec(spec).to_dict()
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(again, sort_keys=True)
    reseeded = execute_spec(consolidation_spec(
        TENANTS_3, arrivals="poisson:gap=1500", seed=5))
    assert [p.admitted_at for p in reseeded.programs] != \
        [p["admitted_at"] for p in first["programs"]], \
        "the seed must actually steer admissions"


def _tier_twins(tenants, checks=(), **kwargs):
    """Run one consolidation spec on both tiers; returns the batch run's
    result and both runs' canonical bytes.  The batch twin must really
    install, or the comparison would diff the event tier with itself.
    Each of ``checks`` is called with both finished systems."""
    out = []
    for tier in ("event", "batch"):
        cfg = experiment_config().replace(tier=tier)
        system = spec_system(consolidation_spec(tenants, cfg, **kwargs))
        assert system.tier == tier
        result = system.run()
        out.append((system, result,
                    json.dumps(result.to_dict(), sort_keys=True)))
    (event_system, _, event), (batch_system, result, batch) = out
    for check in checks:
        check(event_system, batch_system)
    return result, event, batch


TENANTS_MIXED = (("VA", "adaptive", None), ("GEMM", "hysteresis", None),
                 ("SN", "private", None))

#: Two private tenants run with the MC-routers bypassed until the shared
#: third tenant's admission flips the bypass off mid-run.
TENANTS_PRIVATE_FIRST = (("VA", "private", None), ("GEMM", "private", None),
                         ("SN", "shared", None))

TWINS = {
    "poisson": (TENANTS_3, dict(arrivals="poisson:gap=1500", seed=4)),
    "bursty-striped": (TENANTS_MIXED, dict(arrivals="bursty:burst=2",
                                           placement="striped", seed=1)),
    "diurnal-dedicated-cluster": (
        TENANTS_MIXED, dict(arrivals="diurnal",
                            placement="dedicated-cluster", seed=2)),
    "bypass-flips-at-admission": (
        TENANTS_PRIVATE_FIRST, dict(arrivals="poisson:gap=1500", seed=4)),
}


@pytest.mark.parametrize("case", sorted(TWINS))
def test_batch_tier_runs_consolidation_byte_identical(case):
    """Latency tracking and mid-run admissions stay inside the batch
    tier's contract: it installs and reproduces the event tier's bytes."""
    tenants, kwargs = TWINS[case]
    result, event, batch = _tier_twins(tenants, **kwargs)
    assert batch == event
    last = result.programs[-1].admitted_at
    assert last > 0.0, "a tenant must be admitted mid-run"
    if case == "bypass-flips-at-admission":
        assert result.gated_cycles == last, \
            "the MC-routers are gated exactly until the shared admission"


def test_seeded_consolidation_fuzz_matches_the_event_tier(
        tier_state, reads_conserved, dram_writes_conserved, cycle_free):
    """Differential fuzz: sampled 2-4 tenant mixes under every registered
    policy, arrival process and placement run byte-identical on both
    tiers, with equal counters outside the result, every conservation
    identity holding on each tier and no reference cycle left behind."""

    def conserved(event, batch):
        for system in (event, batch):
            reads_conserved(system)
            dram_writes_conserved(system)
            cycle_free(system)

    rng = random.Random(20261017)
    policies = sorted(available_policies())
    rng.shuffle(policies)
    policy_cycle = itertools.cycle(policies)
    arrivals = sorted(available_arrivals())
    placements = sorted(available_placements())
    used, placed = set(), set()
    for i in range(12):
        abbrs = sample_mix(rng.randint(2, 4), seed=rng.randrange(1 << 16))
        tenants = [(abbr, next(policy_cycle), None) for abbr in abbrs]
        used.update(policy for _, policy, _ in tenants)
        kwargs = dict(arrivals=arrivals[i % len(arrivals)],
                      placement=rng.choice(placements),
                      seed=rng.randrange(1 << 16))
        placed.add(kwargs["placement"])
        _, event, batch = _tier_twins(tenants, (tier_state, conserved),
                                      **kwargs)
        assert batch == event, (tenants, kwargs)
    assert used == set(policies)
    assert placed == set(placements)


def test_per_tenant_counters_are_isolated_at_n3():
    result = execute_spec(consolidation_spec(
        TENANTS_3, arrivals="poisson:gap=1500", seed=4))
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
