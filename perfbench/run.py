#!/usr/bin/env python3
"""Builds and runs the live-service benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary and the `slotsel` daemon (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the workload.
The last line of stdout is the result object; build output goes to
stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The benchmark, then the `slotsel` daemon the `http` workload serves
    # from (the repository's root package).
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "slotsel"],
    ]
    for build in builds:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(target, "release", "slotsel-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
        "--daemon", os.path.join(target, "release", "slotsel"),
    ]
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
