#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay_steady --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo package (perfbench/Cargo.toml) built
against the repository's crates by path, in release mode, into
$CARGO_TARGET_DIR (default: .bench_build under the current directory).
Build output goes to standard error; the run's metric lines and its
final one-line JSON result go to standard output. Digests and the traced
run's Chrome trace file are written under perfbench/out/.

Exits non-zero without a result when the build fails (for instance when
the repository's crates are not next to this directory), and non-zero
after printing the result when a correctness check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out")], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
