"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 benchmarks/e2e/calibrate.py --seeds 10 --out set1.json
    python3 benchmarks/e2e/calibrate.py --compare set1.json set2.json

The first form runs ``bench.py`` once per workload and seed (seeds
``--first-seed`` onward), one run at a time, and writes every run's
metrics to ``--out``.  The second prints, per workload and metric, each
set's median, quartiles and spread (interquartile distance over the
median, from ``statistics.quantiles(values, n=4)``), the change of the
second median against the first, and the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_set(workloads: list, seeds: range, seconds: float,
            trace: int) -> dict:
    out: dict = {w: {"runs": []} for w in workloads}
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} exited "
                                 f"{proc.returncode}:\n{proc.stderr}")
            result = json.loads(lines[-1])
            result["seed"] = seed
            out[workload]["runs"].append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
    return out


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare(first: dict, second: dict) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = ["| workload | metric | median 1 | q1–q3 1 | spread 1 | "
             "median 2 | q1–q3 2 | spread 2 | worse by | bound |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for workload, data in first.items():
        names = data["runs"][0]["metrics"]
        for name in names:
            a = summary([r["metrics"][name]["value"] for r in data["runs"]])
            b = summary([r["metrics"][name]["value"]
                         for r in second[workload]["runs"]])
            m = metrics.get(name, {})
            sign = -1 if m.get("better") == "higher" else 1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            bound = m.get("bound")
            lines.append(
                f"| {workload} | {name} | {a['median']:.4g} | "
                f"{a['q1']:.4g}–{a['q3']:.4g} | {a['spread']:.3f} | "
                f"{b['median']:.4g} | {b['q1']:.4g}–{b['q3']:.4g} | "
                f"{b['spread']:.3f} | {worse:+.3f} | "
                f"{'' if bound is None else bound} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        print(compare(first, second))
        return 0
    if args.out is None:
        parser.error("--out is required when running a set")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    data = run_set(workloads, seeds, seconds, args.trace)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
