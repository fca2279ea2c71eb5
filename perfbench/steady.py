#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared per metric.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--first-seed N] [--json PATH]

Runs set A (seeds N .. N+runs-1) and then set B (the next `runs` seeds) of
every workload through run.py with --trace 0. For each workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance as a share of the median) and the gap between the
two medians, |A - B| / min(A, B), against the metric's bound from
BENCHMARK.json. The gap is symmetric: a set that is better by more than the
bound disagrees as much as one that is worse. A metric agrees when both
spreads and the gap are within the bound; it is steady when both spreads
are below a third of it. The share of failed operations must be identical
in the two sets. Exits 1 if anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {}  # (set, workload) -> [result]
    for set_index, name in enumerate("AB"):
        for workload in workloads:
            for i in range(args.runs):
                seed = args.first_seed + set_index * args.runs + i
                result = run_once(workload, seed, args.seconds)
                results.setdefault((name, workload), []).append(result)
                print("set %s %-24s seed %4d correct=%s %s" % (
                    name, workload, seed, result["correct"],
                    " ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                    flush=True)

    ok = True
    print()
    print("%-24s %-15s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "set A median [q1, q3] spread", "set B median [q1, q3] spread",
        "gap", "bound", "verdict"))
    for workload in workloads:
        runs_a, runs_b = results[("A", workload)], results[("B", workload)]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in runs_a])
            b = summary([r["metrics"][name]["value"] for r in runs_b])
            low = min(a["median"], b["median"])
            gap = abs(a["median"] - b["median"]) / low if low > 0 else float("inf")
            spreads = [a["spread"], b["spread"]]
            agree = gap <= bound and all(s <= bound for s in spreads)
            steady = all(s < bound / 3 for s in spreads)
            ok = ok and agree
            print("%-24s %-15s %10.5g [%.5g, %.5g] %4.1f%% %10.5g [%.5g, %.5g] %4.1f%% %7.1f%% %5.0f%%  %s" % (
                workload, name, a["median"], a["q1"], a["q3"], 100 * a["spread"],
                b["median"], b["q1"], b["q3"], 100 * b["spread"], 100 * gap, 100 * bound,
                ("agree" if agree else "DISAGREE") + (", steady" if steady else "")))
        shares = []
        for runs in (runs_a, runs_b):
            shares.append((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(r["correct"] for r in runs_a + runs_b)
        ok = ok and same_share and correct
        print("%-24s failed A %d/%d, B %d/%d: %s; every run correct: %s" % (
            workload, shares[0][0], shares[0][1], shares[1][0], shares[1][1],
            "same share" if same_share else "SHARES DIFFER", correct))

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"%s/%s" % key: value for key, value in results.items()}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
