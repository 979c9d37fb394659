"""Check that regenerated BENCH_*.json files keep the committed shape.

Usage: python3 .github/bench_keys.py BENCH_micro.json [BENCH_sweeps.json ...]

Each named file in the working directory is compared with the version
committed at HEAD (`git show HEAD:<file>`).  The comparison is on key
paths, with list indices collapsed to `[]`: row counts and values may
differ between runs, but every key of every row must be the same.
Exits nonzero and prints the differing paths otherwise.
"""

import json
import subprocess
import sys


def key_paths(value, prefix=""):
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            path = prefix + "/" + key
            paths.add(path)
            paths |= key_paths(item, path)
        return paths
    if isinstance(value, list):
        paths = set()
        for item in value:
            paths |= key_paths(item, prefix + "[]")
        return paths
    return set()


def main(files):
    failed = False
    for name in files:
        with open(name) as f:
            fresh = key_paths(json.load(f))
        committed = key_paths(
            json.loads(subprocess.check_output(["git", "show", "HEAD:" + name]))
        )
        if fresh == committed:
            print("%s: %d key paths match HEAD" % (name, len(fresh)))
            continue
        failed = True
        for path in sorted(committed - fresh):
            print("%s: missing %s" % (name, path))
        for path in sorted(fresh - committed):
            print("%s: extra %s" % (name, path))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
