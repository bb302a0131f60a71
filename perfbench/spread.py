#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), the steadiness figure BENCHMARK.json's bounds are
checked against.

  python3 perfbench/spread.py --workloads serve_mutants_k16 --seeds 1 2 3 4 5
  python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out summary.json
  python3 perfbench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20 \
      --against summary.json

With --against, each median is also compared with the same metric's median
in an earlier summary: the share by which it got worse must stay within the
metric's bound.

Run it from the root of the source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--against", help="an earlier --out summary")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.load(open(args.against))["workloads"] if args.against else {}

    summary, worst, worst_drift = {}, 0.0, 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit("%s seed %d: exit %d, correct=%s" % (
                    workload, seed, done.returncode, result["correct"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[workload][name] = {"median": med, "spread": spread,
                                       "values": vals}
            bound = bounds.get(name)
            drift = ""
            before = earlier.get(workload, {}).get(name)
            if bound and before:
                ratio = med / before["median"]
                worse = ratio - 1 if lower[name] else 1 - ratio
                drift = "  vs earlier %-10.6g worse by %6.3f" % (
                    before["median"], worse)
                worst_drift = max(worst_drift, worse / bound)
            if bound:
                worst = max(worst, spread / bound)
            print("%-20s %-26s median %-12.6g spread %6.3f%s%s" % (
                workload, name, med, spread,
                "  (bound %.2f)" % bound if bound else "", drift))
    print("largest spread / bound: %.3f" % worst)
    if earlier:
        print("largest worsening of a median / bound: %.3f" % worst_drift)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "workloads": summary}, f, indent=1)


if __name__ == "__main__":
    main()
