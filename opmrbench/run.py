#!/usr/bin/env python3
"""Builds the OPMR benchmark from source and runs one workload.

    python3 opmrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first call configures and builds the
engine (../src) and opmr_bench, in the repository's default RelWithDebInfo
mode, under $CARGO_TARGET_DIR
(default .bench_build); later calls only re-check the build.  Build output
goes to standard error, so the last line of standard output is opmr_bench's
JSON result.  The exit status is nonzero when the build fails, opmr_bench
fails or times out, or the result does not list exactly the metrics
BENCHMARK.json names.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds opmr_bench; returns its path.  Both steps are
    no-ops, taking about a second, when the build is current."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "opmr_bench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "opmr_bench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "opmrbench")
    binary = build(build_dir)

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--out=bench_out"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        # Without a trustworthy result, print none of it as the last line.
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: opmr_bench exited with status {done.returncode}")

    expected = expected_metrics(args.trace)
    got = set(json.loads(lines[-1])["metrics"])
    if expected is not None and got != expected:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: metrics differ from BENCHMARK.json: missing "
                 f"{sorted(expected - got)}, unexpected {sorted(got - expected)}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
