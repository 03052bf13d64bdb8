#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload queue-weak|tree-read|kv-zipf \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe from
source with dune, in the release profile and under _perfbench/build so
that it never disturbs a development build, and with dune's shared cache
off so that it writes nothing outside the checkout; then runs it. The last line
of standard output is the benchmark's JSON result. The exit code is
non-zero, and no result is printed, when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "_perfbench", "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("queue-weak", "tree-read", "kv-zipf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--order", default="ebr-first", choices=("ebr-first", "hp-first"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: %s is not the root of a checkout (no dune-project)" % ROOT)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "release", "--cache", "disabled",
         "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
        stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.exit("run.py: build failed (exit %d)" % build.returncode)

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--order", args.order],
        cwd=ROOT, timeout=170)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
