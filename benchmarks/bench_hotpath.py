"""Simulator hot-path throughput: events/sec per LLC policy and tier.

Unlike the figure benchmarks (which regenerate paper *results*), this one
times the simulator *itself* — the fig11-style shared/private/adaptive
scenarios that dominate every campaign, under both the event and batch
execution tiers — and checks the measured events/sec against the committed
baseline so a hot-path regression fails loudly.

Run under pytest-benchmark (``pytest benchmarks/bench_hotpath.py
--benchmark-only -s``) or standalone (``python benchmarks/bench_hotpath.py``,
which also rewrites ``BENCH_hotpath.json`` at the repo root).  The CLI verb
``repro bench`` is the same measurement with flags.
"""

import os

from repro.bench import run_bench, tier_speedups, write_bench
from repro.experiments.runner import print_rows

SCALE = 0.25  # the "medium" preset: the campaign's day-to-day scale


def _rows(data):
    return [{"scenario": key, "tier": row["tier"], "wall_s": row["wall_s"],
             "events": row["events"],
             "events_per_sec": row["events_per_sec"],
             "cycles": row["cycles"]}
            for key, row in data.items() if not key.startswith("_")]


def test_hotpath_throughput(once):
    data = once(run_bench, SCALE)
    print("\nHot path — simulator throughput per LLC policy and tier")
    print_rows(_rows(data))
    for key, row in data.items():
        if key.startswith("_"):
            continue
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
    # The batch tier must actually be fast, not merely installed.
    assert all(s > 1.0 for s in tier_speedups(data).values())


def main() -> None:
    data = run_bench(SCALE)
    print_rows(_rows(data))
    for scenario, speedup in sorted(tier_speedups(data).items()):
        print(f"{scenario}: batch {speedup:.2f}x event tier")
    out = os.path.join(os.path.dirname(__file__), os.pardir,
                       "BENCH_hotpath.json")
    write_bench(os.path.normpath(out), data)
    print(f"wrote {os.path.normpath(out)}")


if __name__ == "__main__":
    main()
