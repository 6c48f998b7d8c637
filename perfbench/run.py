#!/usr/bin/env python3
"""Builds the DIADS benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload fresh_diagnosis --seed 42 \
        --seconds 30 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run configures and compiles, later runs only re-link what changed. The
last line of standard output is the benchmark's JSON result; build output
goes to standard error. Exits non-zero when the build fails, the sources
are missing, or any answer fails its correctness check.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fresh_diagnosis", "dashboard_poll", "stream_detect")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", help="golden digest file (seed 42 check)")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src",
                   os.path.join("tests", "golden_report_digests.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found under {root}: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    command = [os.path.join(build_dir, "diads_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-dir", root, "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-dir", os.path.join(build_dir, "traces")]
    if args.golden:
        command += ["--golden", os.path.abspath(args.golden)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
