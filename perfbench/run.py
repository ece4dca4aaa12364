#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload soak-evm --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary (see perfbench/README.md).
The Go build cache and the binary live under .bench_build/ and the run
records under .bench_out/, so the benchmark reads and writes only inside
the checkout. Without the repository's go.mod beside perfbench/ there is
nothing to build, and the script exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; run from a full checkout",
              file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOPROXY="off", GOWORK="off")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
