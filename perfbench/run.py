#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig10_serial --seed 1000 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench, then runs the perfbench binary from the root
of the checkout. The binary's standard output is passed through; its last
line is the JSON result. Everything the run writes stays under
.bench_build/. See perfbench/BENCHMARK.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fig10_serial", "fig10_supervised", "cotenant_sessions")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "sweep.hpp")):
        raise RuntimeError("library sources not found under src/")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quietly(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quietly([cmake, "--build", BUILD_DIR, "-j", jobs],
                max(1.0, deadline - time.monotonic()))


def run(args):
    os.makedirs(WORK_DIR, exist_ok=True)
    # The library reads CUTTLEFISH_* overrides; inputs come only from flags.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CUTTLEFISH_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    # A session of its own, so a timeout also reaches any forked sweep
    # workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    try:
        build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        log("build failed: %s" % err)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
