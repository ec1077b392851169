"""Mixed-policy co-execution: what per-program policies buy in a mix.

Not a paper figure — the experiment the Scenario API exists for.  The
paper's Figure 15 compares *uniform* LLC policies over two-program mixes;
this driver adds the column that surface could not express: a **matched**
assignment giving each program its category-preferred static organization
(shared-friendly programs keep the shared LLC, private-friendly programs
get private slices), which is only possible now that policies, counters
and controllers are per-program.

Grid: the three uniform policies (shared / private / adaptive) x the
matched per-program assignment, over homogeneous-category pairs (both
programs want the same organization — matched collapses to a uniform
static and costs nothing extra) and heterogeneous-category pairs (the
interesting case: the programs *disagree*).  Rows report system
throughput (STP, Eyerman & Eeckhout) per column, with alone-runs and
uniform pair specs deduplicating against Figure 15's campaign.
"""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.metrics.perf import system_throughput
from repro.report.trends import Trend, summary_value
from repro.workloads.catalog import benchmark

TITLE = "Mixed policy — per-program LLC policies in two-program mixes"
SLUG = "mixed_policy"
PAPER_CLAIM = ("When co-running programs prefer different LLC "
               "organizations, giving each program its own policy "
               "(per-program mode, counters, and controllers) should at "
               "least match the best uniform static assignment — the "
               "scenario the one-policy run surface could not express.")

#: Pair kinds: both-want-the-same-organization and the disagreeing mixes.
HOMOGENEOUS_PAIRS = [("GEMM", "LUD"), ("SN", "RN")]
HETEROGENEOUS_PAIRS = [("GEMM", "SN"), ("LUD", "RN")]

#: Uniform policy columns (legacy spellings: dedupe with fig15's pairs).
UNIFORM = ["shared", "private", "adaptive"]

#: Category → preferred static organization for the matched column.
PREFERRED = {"shared": "shared", "private": "private", "neutral": "shared"}

COLUMNS = UNIFORM + ["matched"]
CHART = ("pair", [f"{c}_stp" for c in COLUMNS])


def _pairs() -> list[tuple[str, str, str]]:
    return ([(a, b, "homogeneous") for a, b in HOMOGENEOUS_PAIRS]
            + [(a, b, "heterogeneous") for a, b in HETEROGENEOUS_PAIRS])


def _matched_modes(abbr_a: str, abbr_b: str) -> tuple[str, str]:
    return (PREFERRED[benchmark(abbr_a).category],
            PREFERRED[benchmark(abbr_b).category])


def _pair_spec(abbr_a: str, abbr_b: str, column: str, cfg,
               scale: float) -> RunSpec:
    if column == "matched":
        mode_a, mode_b = _matched_modes(abbr_a, abbr_b)
        # A homogeneous preference canonicalizes to the uniform static
        # spec, so those cells are cache hits, not extra simulations.
        return RunSpec.pair(abbr_a, abbr_b, mode_a, cfg, scale=scale,
                            mode_b=mode_b)
    return RunSpec.pair(abbr_a, abbr_b, column, cfg, scale=scale,
                        mode_b=column)


def _least_matched_share(rows) -> float:
    """Smallest matched / best-uniform STP over the heterogeneous pairs;
    NaN, which clears no bar, without such pairs.  The floor is generous
    because scaled traces sit inside the noise band."""
    return min((row["matched_stp"] / max(row[f"{c}_stp"] for c in UNIFORM)
                for row in rows if row.get("kind") == "heterogeneous"),
               default=float("nan"))


def expected_trends() -> list[Trend]:
    return [
        Trend("matched_tracks_best_uniform",
              "Per-program matched statics track the best uniform "
              "assignment on heterogeneous pairs (least matched / "
              "best-uniform STP)", _least_matched_share, ">=", 0.85),
        Trend("stp_stays_healthy",
              "Average matched STP stays in a healthy band (>= 0.8 of "
              "two ideal programs)",
              summary_value("matched_stp", "pair", "AVG"), ">=", 0.8),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs: ``("alone", benchmark)`` for
    each program's solo baseline and ``("pair", kind, a, b, column)`` per
    grid cell."""
    cfg = experiment_config()
    abbrs = sorted({x for a, b, _ in _pairs() for x in (a, b)})
    out = {("alone", abbr): RunSpec.single(abbr, "shared", cfg, scale=scale,
                                           max_kernels=1)
           for abbr in abbrs}
    out.update({("pair", kind, a, b, column): _pair_spec(a, b, column, cfg,
                                                         scale)
                for a, b, kind in _pairs() for column in COLUMNS})
    return out


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    runs = nested(results)
    alone = {abbr: res.ipc for abbr, res in runs["alone"].items()}
    out = []
    for kind, pairs in runs["pair"].items():
        for a, partners in pairs.items():
            for b, by_column in partners.items():
                row = {"pair": f"{a}+{b}", "kind": kind}
                for column in COLUMNS:
                    ipcs = {p.name: p.ipc
                            for p in by_column[column].programs}
                    row[f"{column}_stp"] = system_throughput(
                        [ipcs[a], ipcs[b]], [alone[a], alone[b]])
                row["matched_gain"] = row["matched_stp"] / row["shared_stp"]
                out.append(row)
    n = len(out)
    avg = {"pair": "AVG", "kind": "all"}
    for column in COLUMNS:
        avg[f"{column}_stp"] = sum(r[f"{column}_stp"] for r in out) / n
    avg["matched_gain"] = sum(r["matched_gain"] for r in out) / n
    out.append(avg)
    return out
