#!/usr/bin/env python3
"""Builds the perfbench harness from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (which compiles the library
under src/) into .bench_build/perfbench; later calls only check it is up to
date. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. Exits non-zero, printing no result, when the build
fails -- for instance when src/ is absent.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "--parallel", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
