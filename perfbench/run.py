#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload flow_16k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
`--workload all` runs every workload, each in its own process so each
reports its own peak memory.  The last line of standard output of a
single-workload run is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flow_16k", "dse_sweep", "service_mix"]


def build(env):
    """Builds the release binary; returns its path or None on failure."""
    result = subprocess.run(
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workload = None
    if "--workload" in argv:
        index = argv.index("--workload")
        if index + 1 < len(argv):
            workload = argv[index + 1]
    if workload != "all":
        return subprocess.run([binary] + argv, cwd=ROOT, env=env).returncode
    status = 0
    for name in WORKLOADS:
        args = list(argv)
        args[args.index("--workload") + 1] = name
        code = subprocess.run([binary] + args, cwd=ROOT, env=env).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
