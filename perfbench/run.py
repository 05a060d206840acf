#!/usr/bin/env python3
"""Runs one workload of the wire-level benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload retrieve_cold --seed 1 --seconds 10 --trace 0

Builds uots_snapshot, uots_server and the benchmark driver from the checkout
this file sits in (into .bench_build/, configured once, then incremental),
and runs the driver. Build output goes to stderr; the last line on stdout is
the result JSON.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BUILD_TYPE = "Release"
TARGETS = ["uots_server", "uots_snapshot", "perfbench_driver"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: %s holds no uots source tree to build" % ROOT)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ROOT, "-B", CMAKE_DIR,
            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
            "-DCMAKE_PROJECT_INCLUDE=" +
            os.path.join(ROOT, "perfbench", "build.cmake"),
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] + TARGETS
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["retrieve_cold", "retrieve_hot", "trip_ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Compiler and tool temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    build()
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    driver = os.path.join(CMAKE_DIR, "perfbench_driver")
    argv = [
        driver,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%r" % args.seconds,
        "--trace=%d" % args.trace,
        "--bin-dir=" + os.path.join(CMAKE_DIR, "apps"),
        "--work-dir=" + os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid())),
        "--out-dir=" + os.path.join(BUILD, "out", tag),
        "--dataset-dir=" + os.path.join(BUILD, "dataset"),
        "--git-commit=" + git_commit(),
        "--build-type=" + BUILD_TYPE,
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    main()
