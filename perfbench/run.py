#!/usr/bin/env python3
"""Build and run the layered libaid benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload amp-aid --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The benchmark is compiled from source on every call (an up-to-date build
is a no-op) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Build output goes to stderr; the last stdout line is the result JSON
printed by the benchmark binary. The exit code is the binary's: 0 only
when every checked result matched its serial reference.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("amp-aid", "fine-static")


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(build_dir, "perfbench")
    if r.returncode != 0 or not os.path.isfile(exe):
        return None
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that a wrong serial reference fails the run")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The ingress socket and the written-out traces live in the build
    # directory; a relative path keeps the socket path short.
    work_dir = os.path.relpath(build_dir)
    if args.self_test:
        cmd = [exe, "--self-test", "--work-dir", work_dir]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
