"""Consolidation: N-tenant mixes under open-system arrivals.

Not a paper figure — the experiment the consolidation subsystem exists
for.  The paper evaluates two-program closed-system mixes (Figure 15);
datacenter GPUs consolidate *more* tenants that *arrive over time*.  This
driver sweeps offered load (arrival process) x LLC policy over a seeded
three-tenant mix sampled from the catalog categories, and reports the
serving-system view the paper's throughput tables omit: per-tenant tail
latency, weighted speedup against cached solo baselines, and Jain's
fairness over per-tenant speedups.

Grid: arrival level (``closed`` / ``heavy`` / ``light`` Poisson loads) x
LLC policy (shared / private / adaptive).  Solo baselines are plain
single-benchmark specs, so they deduplicate against every other figure's
campaign cache.
"""

from __future__ import annotations

from repro.consolidate.metrics import jains_fairness
from repro.consolidate.mixgen import sample_mix
from repro.experiments.campaign import RunSpec, spec_from_mix
from repro.experiments.runner import experiment_config, nested
from repro.metrics.perf import system_throughput
from repro.report.trends import Trend, summary_value

TITLE = "Consolidation — N-tenant mixes under open-system arrivals"
SLUG = "consolidation"
PAPER_CLAIM = ("Consolidating more than two tenants behind the memory-side "
               "LLC should keep per-tenant service fair (no tenant starved "
               "by the shared organization) while the adaptive policy "
               "tracks the better static choice, even when tenants arrive "
               "mid-run instead of all at time zero.")

#: Tenant count and the seed that samples the mix from the catalog
#: categories (one shared-friendly, one private-friendly, one neutral —
#: :func:`~repro.consolidate.mixgen.sample_mix` round-robins categories).
N_TENANTS = 3
MIX_SEED = 7

#: Arrival levels: label -> arrivals spec (None = closed system).
LOADS = [
    ("closed", None),
    ("heavy", "poisson:gap=1000"),
    ("light", "poisson:gap=4000"),
]

#: Uniform policy columns (legacy spellings: dedupe with other figures).
POLICIES = ["shared", "private", "adaptive"]

CHART = ("cell", ["weighted_speedup", "fairness"])


def _tenant_abbrs() -> list[str]:
    return sample_mix(N_TENANTS, seed=MIX_SEED)


def _mix_spec(policy: str, arrivals: str | None, cfg,
              scale: float) -> RunSpec:
    mix = [(abbr, None) for abbr in _tenant_abbrs()]
    return spec_from_mix(mix, scale=scale, default_policy=policy, cfg=cfg,
                         max_kernels=1, arrivals=arrivals, seed=MIX_SEED)


def _least_tenant_speedup(rows) -> float:
    """Smallest per-tenant speedup over the load/policy grid; NaN, which
    clears no bar, without grid rows.  The floor is loose because a
    three-way split of the LLC legitimately costs each tenant most of
    its solo rate."""
    return min((row["min_speedup"] for row in rows if row["cell"] != "AVG"),
               default=float("nan"))


def expected_trends() -> list[Trend]:
    return [
        Trend("fairness_holds",
              "Jain's fairness over per-tenant speedups stays in a "
              "healthy band across loads and policies",
              summary_value("fairness", "cell", "AVG"), ">=", 0.5),
        Trend("consolidation_pays",
              "Three consolidated tenants outperform serializing them "
              "(average weighted speedup above one program-equivalent)",
              summary_value("weighted_speedup", "cell", "AVG"), ">=", 0.8),
        Trend("no_tenant_starved",
              "No tenant is starved outright in any load/policy cell",
              _least_tenant_speedup, ">=", 0.05),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs: ``("alone", benchmark)`` for
    each tenant's solo baseline and ``("mix", load, policy)`` per grid
    cell."""
    cfg = experiment_config()
    out = {("alone", abbr): RunSpec.single(abbr, "shared", cfg, scale=scale,
                                           max_kernels=1)
           for abbr in _tenant_abbrs()}
    out.update({("mix", load, policy): _mix_spec(policy, arrivals, cfg,
                                                 scale)
                for load, arrivals in LOADS for policy in POLICIES})
    return out


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    runs = nested(results)
    alone = {abbr: res.ipc for abbr, res in runs["alone"].items()}
    out = []
    for load, by_policy in runs["mix"].items():
        for policy, res in by_policy.items():
            ipcs = [p.ipc for p in res.programs]
            solos = [alone[p.name] for p in res.programs]
            speedups = [ipc / solo for ipc, solo in zip(ipcs, solos)]
            p99s = [p.latency["p99"] for p in res.programs]
            out.append({
                "cell": f"{load}/{policy}",
                "load": load,
                "policy": policy,
                "weighted_speedup": system_throughput(ipcs, solos),
                "fairness": jains_fairness(speedups),
                "min_speedup": min(speedups),
                "mean_p99": sum(p99s) / len(p99s),
                "worst_p99": max(p99s),
            })
    n = len(out)
    avg = {"cell": "AVG", "load": "all", "policy": "all"}
    for key in ("weighted_speedup", "fairness", "min_speedup", "mean_p99",
                "worst_p99"):
        avg[key] = sum(r[key] for r in out) / n
    out.append(avg)
    return out
