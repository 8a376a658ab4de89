#!/usr/bin/env python3
"""End-to-end benchmark of the Spice runtime.

Builds the runtime and the benchmark binary from source
(perfbench/CMakeLists.txt) and runs one workload:

    python3 perfbench/run.py --workload scan_readonly --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a source tree. The build goes to the directory
named by CARGO_TARGET_DIR, else to .bench_build, relative to that root.
The last line of standard output is the JSON result; build output goes to
standard error. With --trace 1 the span trace of the run is written to
<build dir>/traces/<workload>.json (Chrome trace-event format).
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan_readonly", "conflict_update", "mixed_serving")
# Changes are developed against the default seed; seed 2 is held out
# for re-checking a claimed gain.
DEFAULT_SEED = 1
# A run measures for --seconds plus setup and, traced, a short ceiling
# phase; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "SpiceLoop.h")):
        sys.exit("perfbench: no Spice sources next to %s; run it from the "
                 "root of a source tree" % HERE)
    cmd_configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
    cmd_build = ["cmake", "--build", out, "--target", "spicebench",
                 "-j", str(len(os.sched_getaffinity(0)))]
    for cmd in ([] if os.path.isfile(os.path.join(out, "CMakeCache.txt"))
                else [cmd_configure]) + [cmd_build]:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "spicebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in [1, 120]")

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "traces", args.workload + ".json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
