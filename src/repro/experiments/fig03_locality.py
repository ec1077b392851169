"""Figure 3: inter-cluster locality under the shared LLC — the fraction of
LLC lines touched by 1 / 2 / 3-4 / 5-8 clusters per 1000-cycle window."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec
from repro.experiments.runner import experiment_config, nested
from repro.report.trends import Trend, category_row
from repro.workloads.catalog import CATEGORIES

BUCKETS = ["1 cluster", "2 clusters", "3-4 clusters", "5-8 clusters"]

TITLE = "Figure 3 — inter-cluster locality (shared LLC, 1000-cycle windows)"
SLUG = "fig03"
PAPER_CLAIM = ("Private-cache-friendly workloads show high inter-cluster "
               "sharing (many clusters re-read the same lines, so "
               "replicating them locally pays off), shared-friendly "
               "workloads moderate sharing, and neutral streaming "
               "workloads almost none.")
CHART = ("benchmark", BUCKETS)


def _multi_cluster(category: str):
    """Measure: the category's AVG fraction of lines touched by more than
    one cluster."""
    return lambda rows: 1.0 - category_row(rows, "AVG", category)[BUCKETS[0]]


def _worst_fraction_sum_error(rows) -> float:
    """Largest |sum of bucket fractions - 1| over rows that touched any
    line."""
    totals = (sum(row[b] for b in BUCKETS) for row in rows)
    return max((abs(total - 1.0) for total in totals if total), default=0.0)


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""
    return [
        Trend("fractions_well_formed",
              "Locality bucket fractions partition the touched lines "
              "(sum to 1 per benchmark)", _worst_fraction_sum_error,
              "<=", 1e-6),
        Trend("sharing_orders_neutral_below_shared",
              "Multi-cluster sharing orders the categories: neutral <= "
              "shared-friendly", _multi_cluster("neutral"), "<=",
              _multi_cluster("shared")),
        Trend("sharing_orders_shared_below_private",
              "Multi-cluster sharing orders the categories: shared-"
              "friendly <= private-friendly", _multi_cluster("shared"),
              "<=", _multi_cluster("private")),
        Trend("private_friendly_mostly_multi_cluster",
              "Most lines private-friendly apps touch are touched by more "
              "than one cluster (multi-cluster fraction > 0.5)",
              _multi_cluster("private"), ">", 0.5),
        Trend("neutral_almost_single_cluster",
              "Neutral apps show almost no inter-cluster sharing "
              "(multi-cluster fraction < 0.15)", _multi_cluster("neutral"),
              "<", 0.15),
    ]


def cells(scale: float = 1.0) -> dict[tuple, RunSpec]:
    """Every simulation this figure needs, keyed ``(category, benchmark)``."""
    cfg = experiment_config()
    return {(category, abbr): RunSpec.single(abbr, "shared", cfg,
                                             scale=scale,
                                             collect_locality=True)
            for category in CATEGORIES
            for abbr in CATEGORIES[category]}


def specs(scale: float = 1.0) -> list[RunSpec]:
    return list(cells(scale).values())


def rows(results: dict) -> list[dict]:
    out = []
    for category, benchmarks in nested(results).items():
        sums = [0.0] * 4
        for abbr, res in benchmarks.items():
            fr = res.locality_fractions or [0.0] * 4
            row = {"benchmark": abbr, "category": category}
            row.update({b: f for b, f in zip(BUCKETS, fr)})
            out.append(row)
            sums = [s + f for s, f in zip(sums, fr)]
        avg = {"benchmark": "AVG", "category": category}
        avg.update({b: s / len(benchmarks) for b, s in zip(BUCKETS, sums)})
        out.append(avg)
    return out
