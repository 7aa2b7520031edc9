#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--paper-seed N] [--metro-seed N]

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so stdout carries only the benchmark's report, whose last
line is one JSON object {correct, attempted, failed, metrics}. Traced runs
(--trace 1) also write their spans to .bench_build/spans/.

Workloads: metro-sharded, daemon-open. See
perfbench/README.md for why each exists and what it measures.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fingerprint():
    """nproc and the CPU clock, so every report names the machine it ran on."""
    mhz = []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("cpu MHz"):
                    mhz.append(float(line.split(":")[1]))
    except OSError:
        pass
    mean_mhz = sum(mhz) / len(mhz) if mhz else 0.0
    return "fingerprint nproc=%d mhz=%.0f" % (os.cpu_count() or 0, mean_mhz)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no eacache sources under %s; run from a checkout root\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paper-seed", type=int)
    parser.add_argument("--metro-seed", type=int)
    args = parser.parse_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.paper_seed is not None:
        command += ["--paper-seed", str(args.paper_seed)]
    if args.metro_seed is not None:
        command += ["--metro-seed", str(args.metro_seed)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    print(fingerprint(), flush=True)
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
