#!/usr/bin/env python3
"""Exact gate for the repository benchmark's deterministic cells.

An episode of a perfbench workload is a fixed, seeded amount of work,
so its virtual-time quantiles, allocations and backbone bytes per op,
heap per home and ok ratio come out bit-identical on every run of one
seed, however long the run. This gate compares those cells of one
result line, exactly, against the checked-in baseline
``bench-baselines/perfbench_seed1.json``. Host-time cells (ops/s, host
ns, setup time) are never read.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | tail -n 1 | python3 scripts/perfbench_gate.py W

With ``--record`` the result's cells are written into the baseline
instead: a change that moves a cell on purpose re-records it and says
so in CHANGES.md. Exit status: 0 green, 1 on a drifted or missing cell
or a result that is not ``"correct": true``.
"""

import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent.parent / "bench-baselines" / "perfbench_seed1.json"

CELLS = (
    "op_virtual_p50_us",
    "op_virtual_p99_us",
    "allocs_per_op",
    "wire_bytes_per_op",
    "heap_bytes_per_home",
    "ok_ratio",
)

# cloud_fleet runs ParSim with one worker thread per core, and its
# allocation and heap figures move with the thread count (48.71 allocs/op
# on two threads, 48.62 on one), so on a host of any other size they
# would drift. Its virtual, wire and ok cells do not, and stay pinned.
THREAD_DEPENDENT = {"cloud_fleet": ("allocs_per_op", "heap_bytes_per_home")}


def check(pinned, result):
    """Returns one failure string per cell of ``pinned`` (cell -> value)
    that ``result`` (a parsed result line) misses or does not equal
    exactly, plus one if the result is not correct."""
    failures = []
    if result.get("correct") is not True:
        failures.append("result is not correct")
    metrics = result.get("metrics", {})
    for cell, want in sorted(pinned.items()):
        got = metrics.get(cell, {}).get("value")
        if got != want:
            failures.append(f"{cell}: baseline {want!r}, got {got!r}")
    return failures


def main():
    args = sys.argv[1:]
    record = "--record" in args
    args = [a for a in args if a != "--record"]
    if len(args) != 1:
        print("usage: perfbench_gate.py [--record] WORKLOAD < result-line", file=sys.stderr)
        return 2
    workload = args[0]
    result = json.loads(sys.stdin.read())
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    if record:
        metrics = result["metrics"]
        skip = THREAD_DEPENDENT.get(workload, ())
        baseline[workload] = {c: metrics[c]["value"] for c in CELLS if c not in skip}
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"perfbench gate: recorded {workload}")
        return 0
    if workload not in baseline:
        print(f"perfbench gate: {workload}: no baseline in {BASELINE}", file=sys.stderr)
        return 1
    failures = check(baseline[workload], result)
    for failure in failures:
        print(f"perfbench gate: {workload}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perfbench gate: {workload}: {len(baseline[workload])} cells exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
