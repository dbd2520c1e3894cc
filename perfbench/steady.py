#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads serve-small,...] [--first-seed 1]
    python3 perfbench/steady.py --runs 10 --seed 1 > set-a.jsonl
    python3 perfbench/steady.py --compare set-a.jsonl set-b.jsonl

Run from the root of a source checkout.  The first form runs each workload
`--runs` times, each run with another seed (first-seed, first-seed + 1,
...); with `--seed N` every run uses seed N.  It prints one JSON object per
workload: per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median of the runs' values (quartiles as
statistics.quantiles(values, n=4) gives them) beside the metric's bound,
then the largest spread / bound over every metric, setup_s included.

`--compare A B` reads two such outputs and prints, per workload and
metric, how much worse B's median is than A's, as a share of A's median,
beside the bound; then the largest shift / bound.  Two sets of runs of
the same code agree when that is at most 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_sets(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {}
        for k in range(args.runs):
            seed = args.seed if args.seed is not None else args.first_seed + k
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(last)
            if out.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: exit {out.returncode}, result {last[:300]}", file=sys.stderr)
                sys.exit(1)
            for name, v in res["metrics"].items():
                values.setdefault(name, []).append(v["value"])
        report = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            report[name] = {"median": med, "spread": round(spread, 4), "bound": bound,
                            "values": [round(v, 6) for v in vs]}
            if bound:
                worst = max(worst, spread / bound)
        seeds = [args.seed] if args.seed is not None else [args.first_seed, args.first_seed + args.runs - 1]
        print(json.dumps({"workload": w, "runs": args.runs, "seeds": seeds, "metrics": report}), flush=True)
    print(json.dumps({"worst_spread_over_bound": round(worst, 3)}))


def read_set(path):
    with open(path) as f:
        return {d["workload"]: d["metrics"] for d in map(json.loads, f) if "workload" in d}


def compare(a_path, b_path, bench):
    a, b = read_set(a_path), read_set(b_path)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0.0
    for w in a:
        if w not in b:
            continue
        row = {}
        for name, m in metrics.items():
            if name not in a[w] or name not in b[w]:
                continue
            ma, mb = a[w][name]["median"], b[w][name]["median"]
            worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
            shift = worse / ma if ma else 0.0
            row[name] = {"a": ma, "b": mb, "worse_by": round(shift, 4), "bound": m["bound"]}
            worst = max(worst, shift / m["bound"])
        print(json.dumps({"workload": w, "metrics": row}))
    print(json.dumps({"worst_shift_over_bound": round(worst, 3)}))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, default=None, help="use this seed for every run")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        compare(args.compare[0], args.compare[1], bench)
    else:
        run_sets(args, bench)


if __name__ == "__main__":
    main()
