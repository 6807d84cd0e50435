#!/usr/bin/env python3
"""Build and run the CQMS end-to-end lab-traffic benchmark.

Usage (from the root of the repository):

    python3 e2ebench/run.py --workload explore --seed 1 --seconds 12 --trace 0

Builds cqms_serverd and the labbench load generator from ../src with
CMake (into $CARGO_TARGET_DIR, default .bench_build, under e2ebench/),
then runs one workload with the settings in e2ebench/config.json. The
last line of stdout is the JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "labbench", "cqms_serverd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(BENCH_DIR, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        print("unknown workload %r (have: %s)" %
              (args.workload, ", ".join(config["workloads"])), file=sys.stderr)
        return 64

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1

    w = config["workloads"][args.workload]
    cmd = [os.path.join(build_dir, "labbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serverd", os.path.join(build_dir, "cqms_serverd"),
           "--run-dir", os.path.join(build_dir, "run")]
    for key, value in w.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    for op, limit in config["p99_limits_ms"].items():
        cmd += ["--limit-%s-ms" % op, str(limit)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
