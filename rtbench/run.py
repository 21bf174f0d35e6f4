#!/usr/bin/env python3
"""Build and run the runtime benchmark (rtbench).

    python3 rtbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rtbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (CMake, Release) into .bench_build/rtbench; later calls only check
that the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the build fails (for example when the repository sources are missing) or the
benchmark's correctness gate fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtbench")
OUT = os.path.join(ROOT, ".bench_build", "rtbench-run")


def sh(cmd):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "replica.h")):
        print("rtbench: repository sources (src/) not found next to rtbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return sh(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets) == 0


def main(argv):
    if argv[:1] == ["--selftest"]:
        if not build(["rtbench_selftest"]):
            return 1
        return sh([os.path.join(BUILD, "rtbench_selftest")])
    if not build(["rtbench"]):
        return 1
    binary = os.path.join(BUILD, "rtbench")
    return subprocess.run([binary] + argv + ["--out-dir", OUT], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
