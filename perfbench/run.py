#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload udp-rr --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary. The Go build cache, the binary,
the span file and the profiles all live under .bench_build/ in the
checkout. The build fails, and this script exits non-zero without a
result line, when the repository's Go sources are not present.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(build, "gocache")
    env["GOTOOLCHAIN"] = "local"
    env["PPROF_TMPDIR"] = os.path.join(build, "pprof")
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out = os.path.join(build, "perfbench-out")
    run = subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
