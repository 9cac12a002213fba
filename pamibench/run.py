#!/usr/bin/env python3
"""Build the pamibench program from this checkout's sources and run one workload.

    python3 pamibench/run.py --workload <mpi_pt2pt|am_rpc|des_collectives> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 pamibench/run.py --selftest

Run from the root of a checkout. The program is configured and built in
``$CARGO_TARGET_DIR/pamibench`` (default ``.bench_build/pamibench``) against
``src/``; later runs only re-check the build. Build output goes to standard
error, so the last line of standard output is the program's JSON result.
The exit code is the program's, or non-zero when the sources are missing or
the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mpi_pt2pt", "am_rpc", "des_collectives")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "pamibench")


def build(bdir):
    """Configure (once) and build the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr) != 0:
        return None
    exe = os.path.join(bdir, "pamibench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="hand every correctness check a corrupted case")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pamibench: no src/ next to the benchmark; run from a full checkout",
              file=sys.stderr)
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("pamibench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()

    if args.selftest:
        cmd = [exe, "--selftest"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", bdir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("pamibench: program timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
