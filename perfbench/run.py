#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the tpr libraries and the benchmark
runner from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark's self-tests, then
runs one workload. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
A per-layer metric of a layer the workload does not run reads 0.

Exits non-zero when the build, the self-tests or a workload's output
checks fail; only the last prints a result line, with "correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("train", "serve_unique", "serve_hot", "adapt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr (stdout is the result)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", src, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", "4", "--target",
               "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(root, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60, check=False)
    if selftest.returncode != 0:
        fail("benchmark self-tests failed")

    out_dir = os.path.join(build_dir, "out",
                           f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    # The runner fixes thread counts, kernel dispatch and tracing itself;
    # no TPR_* knob of the caller's environment may change what it runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TPR_")}
    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--out-dir", out_dir],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
        timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)  # environment stamp
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        fail(f"workload {args.workload} crashed (exit {proc.returncode})")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = metrics[m["name"]]
        elif args.trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"workload {args.workload} did not report {m['name']}")
    result["metrics"] = out
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail(f"workload {args.workload} failed its output checks")


if __name__ == "__main__":
    main()
