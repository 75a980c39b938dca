#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload write_mem --seed 1 --seconds 20 --trace 0

The Rust package in this directory is built in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build in the checkout), then run
with the same arguments. Its standard output is passed through, so the
last line is the result object. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; leave room for the process to be reaped.
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # Keep Cargo's own caches inside the checkout too; every dependency
    # is a path dependency, so an empty Cargo home suffices offline.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "vsr-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
