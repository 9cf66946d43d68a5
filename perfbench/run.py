#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload livermore-service --seed 1 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The first run configures and builds the benchmark and the library it
measures (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild only what
changed.  Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing")
    if not shutil.which("cmake"):
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "perfbench",
               "-j", jobs])
    return os.path.join(out, "perfbench")


def main():
    out = build_dir()
    binary = build(out)
    scratch = os.path.join(out, "run-%d" % os.getpid())
    try:
        result = subprocess.run([binary] + sys.argv[1:] +
                                ["--scratch", scratch])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
