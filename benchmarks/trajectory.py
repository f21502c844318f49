"""Fold benchmark result files into one ``BENCH_<tag>.json`` trajectory point.

    python3 benchmarks/trajectory.py --tag seed --out benchmarks/BENCH_seed.json \\
        .bench_out/*-trace0.json .bench_out/*-trace1.json

For each workload and metric it keeps the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the interquartile distance as a share of the median, over the runs given.
Untraced runs give the end-to-end metrics and traced runs the per-layer ones.
It prints each end-to-end spread next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spec", default="BENCHMARK.json")
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(Path(args.spec).read_text())["end_to_end"]}

    values = defaultdict(lambda: defaultdict(list))   # (workload, trace) -> metric -> values
    units, seeds, records, failed = {}, defaultdict(list), {}, 0
    for path in args.results:
        run = json.loads(Path(path).read_text())
        key = (run["workload"], "per_layer" if run["trace"] else "end_to_end")
        metrics = dict(run["result"]["metrics"])
        if not run["trace"]:
            metrics.update(run["named_metrics"])
        for name, m in metrics.items():
            values[key][name].append(m["value"])
            units[name] = m["unit"]
        seeds[key].append(run["seed"])
        records.setdefault(run["workload"], run["record"])
        failed += run["result"]["failed"] or not run["result"]["correct"]

    point = {"tag": args.tag, "workloads": {}}
    worst = 0.0
    for (workload, kind), metrics in sorted(values.items()):
        entry = point["workloads"].setdefault(workload, {"record": records[workload]})
        entry[kind] = {"seeds": seeds[(workload, kind)],
                       "metrics": {name: {**summarize(v), "unit": units[name]}
                                   for name, v in metrics.items()}}
        if kind == "end_to_end":
            for name, bound in bounds.items():
                s = entry[kind]["metrics"][name]
                flag = "" if s["spread"] < bound / 3 else "  above bound/3"
                worst = max(worst, s["spread"] / bound)
                print(f"{workload:7s} {name:18s} median {s['median']:12.6g} "
                      f"spread {s['spread']:.4f} (bound {bound}){flag}")
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    print(f"runs with failures: {failed}; worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
