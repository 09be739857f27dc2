#!/usr/bin/env python3
"""Build and run the host-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench (and the library sources
it links) under $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild only what changed. The last stdout line of each workload is a
JSON object {"correct", "attempted", "failed", "metrics"}; a traced run
(--trace 1) also writes a Chrome trace-event file next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["infer", "scan", "pipeline"]


def build(build_dir):
    """Configure once, then build incrementally; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    trace_dir = os.path.join(build_root, "perfbench-traces")
    status = 0
    for w in workloads:
        cmd = [binary, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spec", os.path.join(ROOT, "BENCHMARK.json"),
               "--reference", os.path.join(HERE, "reference.json")]
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.json" % (w, args.seed))]
        sys.stdout.flush()
        status = status or subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
