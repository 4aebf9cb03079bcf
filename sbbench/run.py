#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 sbbench/run.py --workload spec_roster --seed 1 --seconds 20 --trace 0

Builds the sbbench binary against the repository's libsb (CMake,
Release) into $CARGO_TARGET_DIR or .bench_build, runs the workload in a
fresh temporary directory with every SB_* variable removed from the
environment. The last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits nonzero, without a result line, when the sources
are missing or the build or run fails; exits 1 after the result line
when the correctness gate fails. --workload all runs every workload in
turn. See sbbench/METRICS.md for what is measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_roster", "server_mix", "oracle_sweep")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "sbbench")


def build(out_dir):
    """Configure once, then build sbbench; returns its path."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "sbbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "sbbench")


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SB_")}


def run_workload(exe, out_dir, workload, args):
    """One workload; prints its lines and result; returns the exit code."""
    bench_args = ["--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)]
    if args.quick:
        bench_args.append("--quick")
    if args.corrupt_cell is not None:
        bench_args += ["--corrupt-cell", str(args.corrupt_cell)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        bench_args += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, args.seed))]

    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        proc = subprocess.run([exe, *bench_args], cwd=work_dir,
                              env=scrubbed_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        log("sbbench: run failed:", err)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log("sbbench: binary exited with", proc.returncode)
        return 2
    result = json.loads(lines[-1])
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload (self-test only)")
    parser.add_argument("--corrupt-cell", type=int,
                        help="plant a wrong outcome (self-test only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("sbbench: simulator sources not found next to", HERE)
        return 2

    out_dir = build_dir()
    try:
        exe = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("sbbench: build failed:", err)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(exe, out_dir, w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
