#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
sdfred_cli and bench_e2e (Release) under .bench_build/e2e; later calls only
check the build.  Build output goes to stderr.  The bench's own output is
passed through, so the last line of stdout is its JSON result: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1 (the span trace
is written to .bench_build/trace-NAME-N.json).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e")
PACKAGE = os.path.join("bench", "e2e")
WORKLOADS = ("cli_table1", "cold_large", "serve_mix", "serve_edit")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds bench_e2e and the sdfred_cli it spawns."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "--parallel", jobs],
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # The benchmark builds the program it measures from this checkout.
    for needed in ("CMakeLists.txt", "src", "tools", "data", os.path.join(PACKAGE, "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail("run from the root of an sdfred checkout (missing %s)" % needed)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        fail("build failed: %s" % error)

    command = [
        os.path.join(BUILD_DIR, "bench_e2e"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--cli", os.path.join(BUILD_DIR, "sdfred", "tools", "sdfred_cli"),
        "--data", "data",
        "--expected", os.path.join(PACKAGE, "expected", "table1.txt"),
        "--scratch", BUILD_ROOT,
    ]
    if args.trace:
        command += ["--trace", os.path.join(BUILD_ROOT, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # A session of its own, so a timeout takes down the daemon and CLI
    # children with the bench.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
