#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload grid_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The driver is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
run once; its last stdout line is the result object. Build output goes
to stderr. The workloads and metrics are listed in BENCHMARK.json and
described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid_steady", "serve_hot")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("driver metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the driver's metric tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    driver = build("perfbench_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("driver exited with code %d" % proc.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
