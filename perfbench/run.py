#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--draw <program>:<ops>:<seed>]...

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) in .bench_build/perfbench; later
runs only let the build tool check it is up to date. All arguments go
to the perfbench binary, whose last stdout line is the JSON result.
Draw logs and Chrome traces land in .bench_build/perfbench-out.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "xfd.hh")):
        fail("no src/ next to perfbench/: run from a checkout root")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(BUILD, "perfbench")
    proc = subprocess.run([exe, "--out", OUT] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
