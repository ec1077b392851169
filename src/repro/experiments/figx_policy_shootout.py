"""Policy shootout: every registered LLC policy over a representative
benchmark slice, normalized to the static-shared baseline.

Not a paper figure — the experiment the policy layer exists for.  The
paper reports its adaptive controller against the two statics (Figure 11);
the registry makes the interesting *fourth* column cheap: an oracle that
picks the better static per workload (the bound every dynamic policy
chases), plus naive dynamic policies (miss-rate threshold, hysteresis)
that quantify how much of paper-adaptive's win comes from its profiling
hardware (ATD + bandwidth model) versus merely being dynamic at all.

Per benchmark the driver reports one ``<policy>_norm`` IPC column per
registered policy and, for the dynamic ones, a ``<policy>_transitions``
column; a ``GM`` summary row carries geomean normalized IPC.
"""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested, \
    scaled_policy_params
from repro.metrics.perf import geomean_speedup
from repro.report.trends import Trend, summary_value

#: Shootout columns, in presentation order.  ``static-shared`` must stay
#: first: it is the normalization baseline.
POLICIES = [
    "static-shared",
    "static-private",
    "paper-adaptive",
    "miss-rate-threshold",
    "hysteresis",
    "bandit",
    "oracle-static",
]

#: Spec spelling per column.  The requested policy name is part of the
#: result payload (``RunResult.mode``) and therefore of the content key,
#: so aliases hash differently from their canonical names; declaring the
#: triad with the same legacy spellings the paper figures use lets the
#: campaign collapse those simulations across figures instead of running
#: them twice per ``repro report``.
SPEC_NAMES = {
    "static-shared": "shared",
    "static-private": "private",
    "paper-adaptive": "adaptive",
}

#: Policies whose transition counts are worth a column.
DYNAMIC_POLICIES = ["paper-adaptive", "miss-rate-threshold", "hysteresis",
                    "bandit"]

#: Two benchmarks per Table 2 category: enough spread to rank policies,
#: small enough that the 3x-cost oracle probes stay cheap.
BENCHMARKS = {
    "shared": ["GEMM", "LUD"],
    "private": ["SN", "RN"],
    "neutral": ["VA", "HG"],
}

TITLE = "Policy shootout — registered LLC policies, normalized IPC"
SLUG = "policy_shootout"
PAPER_CLAIM = ("The paper's adaptive controller approaches the per-workload "
               "best static organization (the oracle bound) without oracle "
               "knowledge, and its profiling hardware beats naive miss-rate "
               "heuristics that are merely dynamic.")
CHART = ("benchmark", [f"{p}_norm" for p in POLICIES])


def _gm(policy: str):
    """Measure: the policy's geomean normalized IPC."""
    return summary_value(f"{policy}_norm", "benchmark", "GM")


def _transitions(policy: str):
    """Measure: the policy's total mode transitions over the workloads."""
    return lambda rows: sum(r[f"{policy}_transitions"]
                            for r in _bench_rows(rows))


def _worst_oracle_gap(rows) -> float:
    """Largest |oracle - best static| normalized IPC over the workloads.
    The oracle's measured run IS the winning static run, so determinism
    makes this zero."""
    return max([0.0] + [
        abs(r["oracle-static_norm"]
            - max(r["static-shared_norm"], r["static-private_norm"]))
        for r in _bench_rows(rows)])


def _best_naive_less_slack(rows) -> float:
    """Bar: the better naive heuristic's geomean, less 0.02 of slack."""
    return max(_gm("miss-rate-threshold")(rows),
               _gm("hysteresis")(rows)) - 0.02


def expected_trends() -> list[Trend]:
    return [
        Trend("oracle_is_best_static",
              "The oracle policy reproduces the better static "
              "organization exactly, per workload", _worst_oracle_gap,
              "<=", 1e-9),
        Trend("adaptive_tracks_oracle",
              "Paper-adaptive captures >= 90% of the oracle's geomean "
              "normalized IPC", lambda rows: (
                  _gm("paper-adaptive")(rows) / _gm("oracle-static")(rows)),
              ">=", 0.90),
        Trend("adaptive_beats_naive_heuristics",
              "The paper's profiled controller is at least as good as "
              "naive miss-rate heuristics (geomean, less 0.02)",
              _gm("paper-adaptive"), ">=", _best_naive_less_slack),
        Trend("hysteresis_damps_transitions",
              "A dwell requirement never increases the transition count "
              "relative to the bare threshold policy",
              _transitions("hysteresis"), "<=",
              _transitions("miss-rate-threshold")),
    ]


def _bench_rows(rows) -> list[dict]:
    return [r for r in rows if r["benchmark"] != "GM"]


def _column_spec(abbr: str, policy: str, cfg, scale: float) -> RunSpec:
    """One shootout cell: legacy spelling for the triad (cross-figure
    dedup) and scale-derived window parameters for the interval policies
    (so smoke/small columns actually transition)."""
    return RunSpec.single(abbr, SPEC_NAMES.get(policy, policy), cfg,
                          scale=scale,
                          policy_params=scaled_policy_params(policy, scale)
                          or None)


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed
    ``(category, benchmark, policy)``."""
    cfg = experiment_config()
    return {(category, abbr, policy): _column_spec(abbr, policy, cfg, scale)
            for category, abbrs in BENCHMARKS.items()
            for abbr in abbrs
            for policy in POLICIES}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    norms: dict[str, list[float]] = {p: [] for p in POLICIES}
    for category, benchmarks in nested(results).items():
        for abbr, by_policy in benchmarks.items():
            base = by_policy["static-shared"].ipc
            row = {"benchmark": abbr, "category": category}
            for p in POLICIES:
                row[f"{p}_norm"] = by_policy[p].ipc / base
                norms[p].append(row[f"{p}_norm"])
            for p in DYNAMIC_POLICIES:
                row[f"{p}_transitions"] = by_policy[p].transitions
            out.append(row)
    gm = {"benchmark": "GM", "category": "all"}
    for p in POLICIES:
        gm[f"{p}_norm"] = geomean_speedup(norms[p])
    for p in DYNAMIC_POLICIES:
        gm[f"{p}_transitions"] = sum(r[f"{p}_transitions"] for r in out)
    out.append(gm)
    return out
