#!/usr/bin/env python3
"""Run one workload of the stack benchmark.

    python3 perfbench/run.py --workload map-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe from source
with dune (build output goes to stderr), then runs it; its standard
output ends with one JSON result line.  Workloads: map-mixed,
cache-zipf, kv-read, kv-durable.  The default seed is 1; seed 7919 is
held out for verifying claims (see perfbench/NOTES.md).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["map-mixed", "cache-zipf", "kv-read", "kv-durable"]
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        print("run.py: run from the root of a full checkout (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2

    # No shared dune cache: the build writes only under _build/ here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark's own server children read their stdin from it
        # and exit once it dies.
        proc.kill()
        proc.wait()
        print("run.py: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
