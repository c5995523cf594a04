#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload soap_call_mix --seed 1 --seconds 10 --trace 0

Arguments are passed to the benchmark binary unchanged. The build goes
to $CARGO_TARGET_DIR, or `.bench_build` at the repository root when it
is unset; it reads nothing outside the repository. The last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Provenance: the compiler that built the benchmark.
    rustc = subprocess.run(["rustc", "--version"], cwd=ROOT, capture_output=True,
                           text=True, env=env)
    if rustc.returncode == 0:
        env["PERFBENCH_RUSTC"] = rustc.stdout.strip()
    # The commit, when this is a git checkout (and only this
    # one: git must not search the directories above it).
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        if rev.returncode == 0:
            env["PERFBENCH_GIT_REV"] = rev.stdout.strip()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
