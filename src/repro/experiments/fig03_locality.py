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


def expected_trends() -> list[Trend]:
    """The figure's paper-claimed trends, checked against ``rows()``."""

    def fractions_sum(rows):
        for row in rows:
            total = sum(row[b] for b in BUCKETS)
            if total and abs(total - 1.0) > 1e-6:
                return False, (f"{row['benchmark']}: bucket fractions sum "
                               f"to {total:.4f}")
        return True, "every benchmark's bucket fractions sum to 1"

    def sharing_order(rows):
        multi = {c: 1.0 - category_row(rows, "AVG", c)[BUCKETS[0]]
                 for c in ("private", "shared", "neutral")}
        ok = multi["neutral"] <= multi["shared"] <= multi["private"]
        return ok, ("multi-cluster fraction: neutral "
                    f"{multi['neutral']:.3f} <= shared "
                    f"{multi['shared']:.3f} <= private "
                    f"{multi['private']:.3f}?")

    def private_mostly_shared(rows):
        multi = 1.0 - category_row(rows, "AVG", "private")[BUCKETS[0]]
        return (multi > 0.5,
                f"private-friendly multi-cluster fraction = {multi:.3f} "
                f"(want > 0.5)")

    def neutral_barely_shared(rows):
        multi = 1.0 - category_row(rows, "AVG", "neutral")[BUCKETS[0]]
        return (multi < 0.15,
                f"neutral multi-cluster fraction = {multi:.3f} "
                f"(want < 0.15)")

    return [
        Trend("fractions_well_formed",
              "Locality bucket fractions partition the touched lines "
              "(sum to 1 per benchmark)", fractions_sum),
        Trend("sharing_orders_categories",
              "Multi-cluster sharing orders the categories: private- "
              "friendly > shared-friendly > neutral", sharing_order),
        Trend("private_friendly_mostly_multi_cluster",
              "Most lines private-friendly apps touch are touched by more "
              "than one cluster (multi-cluster fraction > 0.5)",
              private_mostly_shared),
        Trend("neutral_almost_single_cluster",
              "Neutral apps show almost no inter-cluster sharing "
              "(multi-cluster fraction < 0.15)", neutral_barely_shared),
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
