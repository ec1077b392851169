"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root (nothing to build)::

    python3 benchmarks/e2e/bench.py --workload solo-stream --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer metrics from ``cProfile`` and span wrappers
and writes its spans to ``benchmarks/e2e/.work/``.  The metric table goes
to stdout, and the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and bounds: ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    # Measure the checkout's simulator, never an installed copy.
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(harness.WORKLOADS)})")

    out = harness.run(workload, args.seed,
                      harness.Budget(seconds=args.seconds),
                      trace=bool(args.trace))
    print(f"{out.workload} seed={out.seed} trace={int(out.traced)} "
          f"accelerated tier={out.accel_tier} "
          f"(installs as {out.accel_installed}) "
          f"trace digest={out.trace_digest[:16]}")
    print(f"  host times in reference seconds; median wall-to-reference "
          f"factor {out.speed:.4f}")
    for name, (value, unit, n) in out.metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<9} n={n}")
    if out.trace_file is not None:
        print(f"  spans: {out.trace_file}")
    for failure in out.ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": out.ledger.failed == 0,
        "attempted": out.ledger.attempted,
        "failed": out.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
