#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and quartile spread, (q3 - q1) / median, against its bound.

    python3 perfbench/spread.py --workload soap_call_mix --seeds 1-10
    python3 perfbench/spread.py --workload cloud_fleet --seeds 11-20 \
        --out second.json --against first.json

`--out` saves the per-seed values; `--against` compares this set's
medians with a saved set's, as a share of the saved median, which must
not get worse by more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {out.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    before = json.load(open(args.against)) if args.against else {}
    saved = {}
    for workload in args.workload:
        runs = [run_once(workload, s, seconds, args.trace) for s in args.seeds]
        saved[workload] = runs
        print(f"== {workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, {seconds} s")
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound, better = bounds.get(name, (None, None))
            line = f"{name:24} median {med:<14.6g} spread {spread:7.4f}"
            if bound is not None:
                line += f"  bound {bound:<5} spread/bound {spread / bound:5.2f}"
            if workload in before and bound is not None:
                old = statistics.median(r[name] for r in before[workload])
                worse = (med - old) / old if better == "lower" else (old - med) / old
                line += f"  worse-than-saved {worse:+.4f}"
            print(line)
    if args.out:
        json.dump(saved, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
